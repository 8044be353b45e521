package live

import "satwatch/internal/obs"

// Exported metrics (see OBSERVABILITY.md). The obs registry has no label
// support, so every queue edge gets its own flat metric family; worker
// shard queues share one family (depths are deltas, so they aggregate).
var (
	mIntents = obs.NewCounter("live_intents_total",
		"Flow intents admitted into the pipeline (after rate multiplication).", "")
	mSynthErrors = obs.NewCounter("live_synth_errors_total",
		"Intents whose synthesis failed; the worker drops them and continues.", "")
	mFlowRecords = obs.NewCounter("live_flow_records_total",
		"Flow records emitted by worker trackers into the analytics stage.", "")
	mActiveFlows = obs.NewGauge("live_active_flows",
		"In-flight flows across all worker trackers.", "")
	mWatchdogStalls = obs.NewCounter("live_watchdog_stalls_total",
		"Heartbeat stalls detected by the per-stage watchdog.", "")
	mLateRecords = obs.NewCounter("live_analytics_late_records_total",
		"Records dropped because they arrived after their window's end-plus-grace boundary had already finalized.", "")
	mTraceWriteErrors = obs.NewCounter("live_trace_write_errors_total",
		"Failed writes to the rotating live trace log (the flow stays in the ring; the pipeline continues).", "")
	mHistoryWriteErrors = obs.NewCounter("live_history_write_errors_total",
		"Failed history-log appends (the window stays in the in-memory ring; the pipeline continues).", "")
	mHistoryReloaded = obs.NewGauge("live_history_reloaded_windows",
		"Windows replayed from the history log at startup (-history restart).", "")
	mControlEncodeErrors = obs.NewCounter("live_control_encode_errors_total",
		"JSON encode failures on control-plane read endpoints (client likely disconnected mid-response).", "")

	// Queue edges. intents: generator → dispatcher (Block). synth:
	// dispatcher → worker shards (Shed). records: workers → analytics
	// (Shed). The intents edge never sheds and what it accepts is
	// live_intents_total, so its Shed and Pushed counters are unregistered
	// placeholders for the two fields a Queue writes unconditionally.
	qmIntents = QueueMetrics{
		Depth: obs.NewGauge("live_q_intents_depth",
			"Items buffered on the generator → dispatcher queue.", ""),
		HighWater: obs.NewGauge("live_q_intents_highwater",
			"Peak depth observed on the generator → dispatcher queue.", ""),
		Shed:   new(obs.Counter),
		Pushed: new(obs.Counter),
	}
	qmSynth = QueueMetrics{
		Depth: obs.NewGauge("live_q_synth_depth",
			"Items buffered across all dispatcher → worker shard queues.", ""),
		HighWater: obs.NewGauge("live_q_synth_highwater",
			"Peak per-shard depth observed on the dispatcher → worker queues.", ""),
		Shed: obs.NewCounter("live_q_synth_shed_total",
			"Intents shed at full worker shard queues (load shedding under overload).", ""),
		Pushed: obs.NewCounter("live_q_synth_pushed_total",
			"Intents accepted onto worker shard queues.", ""),
	}
	qmRecords = QueueMetrics{
		Depth: obs.NewGauge("live_q_records_depth",
			"Records buffered on the workers → analytics queue.", ""),
		HighWater: obs.NewGauge("live_q_records_highwater",
			"Peak depth observed on the workers → analytics queue.", ""),
		Shed: obs.NewCounter("live_q_records_shed_total",
			"Records shed at the full analytics queue (analytics lag under overload).", ""),
		Pushed: obs.NewCounter("live_q_records_pushed_total",
			"Records accepted onto the analytics queue.", ""),
	}
)
