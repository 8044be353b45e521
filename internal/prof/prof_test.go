package prof

import (
	"context"
	"runtime/pprof"
	"sync"
	"testing"
)

func labelOf(ctx context.Context, key string) string {
	v, _ := pprof.Label(ctx, key)
	return v
}

func TestStageLabelsContext(t *testing.T) {
	var got string
	Stage(context.Background(), StagePassA, func(ctx context.Context) {
		got = labelOf(ctx, "stage")
	})
	if got != StagePassA {
		t.Fatalf("stage label = %q, want %q", got, StagePassA)
	}
}

func TestWorkerStacksOnStage(t *testing.T) {
	var stage, worker string
	Stage(context.Background(), StagePassB, func(ctx context.Context) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			Worker(ctx, 3, func(wctx context.Context) {
				stage = labelOf(wctx, "stage")
				worker = labelOf(wctx, "worker")
			})
		}()
		wg.Wait()
	})
	if stage != StagePassB || worker != "3" {
		t.Fatalf("labels = stage:%q worker:%q, want stage:%q worker:\"3\"", stage, worker, StagePassB)
	}
}

func TestDoSwapsStageKeepsWorker(t *testing.T) {
	var stage, worker string
	Stage(context.Background(), StagePassB, func(ctx context.Context) {
		Worker(ctx, 1, func(wctx context.Context) {
			Do(wctx, StageTstat, func() {
				// Do's callback has no ctx; verify via the goroutine's
				// current label set instead.
			})
			// The labels applied by Do are visible to the goroutine while
			// fn runs; read them from inside via a nested pprof.Do.
			pprof.Do(wctx, pprof.Labels("stage", StageTstat), func(ictx context.Context) {
				stage = labelOf(ictx, "stage")
				worker = labelOf(ictx, "worker")
			})
		})
	})
	if stage != StageTstat || worker != "1" {
		t.Fatalf("labels = stage:%q worker:%q, want stage:%q worker:\"1\"", stage, worker, StageTstat)
	}
}

func TestStageReportsAllocations(t *testing.T) {
	var sink [][]byte
	info := Stage(context.Background(), StageMerge, func(context.Context) {
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 4096))
		}
	})
	_ = sink
	if info.Bytes < 100*4096 {
		t.Fatalf("alloc bytes = %d, want >= %d", info.Bytes, 100*4096)
	}
	if info.Objects < 100 {
		t.Fatalf("alloc objects = %d, want >= 100", info.Objects)
	}
}

func TestStageLabelsListMatchesConstants(t *testing.T) {
	want := []string{StagePassA, StageMACPrebuild, StagePassB, StageMerge, StageTstat, StageReport}
	got := StageLabels()
	if len(got) != len(want) {
		t.Fatalf("StageLabels() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StageLabels()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
