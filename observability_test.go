package satwatch

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"satwatch/internal/obs"
	"satwatch/internal/prof"
	"satwatch/internal/trace"

	// The tunnel/PEP socket stack and the live daemon are not on the
	// satwatch.go pipeline path; import them for registration so the doc
	// cross-checks cover their metrics.
	_ "satwatch/internal/live"
	_ "satwatch/internal/pep"
	_ "satwatch/internal/tunnel"
)

// TestObservabilityDocCoversRegistry asserts that OBSERVABILITY.md
// documents every metric the pipeline registers: importing this package
// pulls in every instrumented internal package, so the Default registry
// at test time is exactly the metric set a `-metrics` dump can contain.
func TestObservabilityDocCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("OBSERVABILITY.md must exist at the repo root: %v", err)
	}
	text := string(doc)
	snaps := obs.Default.Snapshot()
	if len(snaps) == 0 {
		t.Fatal("no metrics registered — instrumentation missing?")
	}
	for _, s := range snaps {
		if !strings.Contains(text, "`"+s.Name+"`") {
			t.Errorf("metric %q (%s) is not documented in OBSERVABILITY.md", s.Name, s.Kind)
		}
	}
}

// TestObservabilityDocHasNoStaleMetrics walks the doc's metric table rows
// and flags documented names that no longer exist in the registry (the
// satpep command registers its two gauges only in its own binary, so they
// are allowed here).
func TestObservabilityDocHasNoStaleMetrics(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, s := range obs.Default.Snapshot() {
		registered[s.Name] = true
	}
	allowed := map[string]bool{
		"satpep_handshake_seconds": true,
		"satpep_download_seconds":  true,
		// Manifest timings/allocs stage key, not a metric.
		"mac_prebuild": true,
	}
	re := regexp.MustCompile("`((?:netsim|mac|pep|phy|shaper|tstat|dnssim|satpep|tunnel|live)_[a-z0-9_]+)`")
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		if !registered[name] && !allowed[name] {
			t.Errorf("OBSERVABILITY.md documents %q, which is not registered", name)
		}
	}
}

// TestObservabilityDocCoversProfileArtifacts pins the -profile artifact
// set: every file a capture writes must be documented in the runbook's
// Profiling section by its exact name.
func TestObservabilityDocCoversProfileArtifacts(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, name := range prof.ArtifactNames() {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("profile artifact %q is not documented in OBSERVABILITY.md", name)
		}
	}
}

// TestDesignDocCoversStageLabels pins the pprof stage-label contract:
// every label prof can attach must be documented in DESIGN.md's
// stage-label table, so profile consumers can rely on the names.
func TestDesignDocCoversStageLabels(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, label := range prof.StageLabels() {
		if !strings.Contains(text, "`"+label+"`") {
			t.Errorf("stage label %q is not documented in DESIGN.md", label)
		}
	}
}

// TestObservabilityDocCoversSpans extends the runbook cross-check to the
// flight recorder: every span name the pipeline can emit must be
// documented in OBSERVABILITY.md's Tracing section, and every span-like
// name the doc mentions must exist in trace.SpanNames().
func TestObservabilityDocCoversSpans(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	known := map[string]bool{}
	for _, name := range trace.SpanNames() {
		known[name] = true
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("span %q is not documented in OBSERVABILITY.md", name)
		}
	}
	// Span names are "<component>.<snake_case>"; the metric cross-check
	// above covers the underscore-only metric names.
	re := regexp.MustCompile("`((?:geo|mac|pep|shaper|cdn|tstat|live)\\.[a-z0-9_]+)`")
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		if !known[m[1]] {
			t.Errorf("OBSERVABILITY.md documents span %q, which the pipeline cannot emit", m[1])
		}
	}
}

// TestDocsNameOnlyExistingTools keeps the tool list honest in both
// directions: every cmd/<tool> the top-level docs name is a directory
// under cmd/, and every directory under cmd/ has its row in README's
// "What is in here" tree.
func TestDocsNameOnlyExistingTools(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	tools := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			tools[e.Name()] = true
		}
	}
	re := regexp.MustCompile(`cmd/([a-z0-9]+)`)
	var readme string
	for _, name := range []string{"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "README.md" {
			readme = string(doc)
		}
		for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
			if !tools[m[1]] {
				t.Errorf("%s names cmd/%s, which does not exist", name, m[1])
			}
		}
	}
	_, tree, ok := strings.Cut(readme, "## What is in here")
	if !ok {
		t.Fatal(`README.md has no "What is in here" section`)
	}
	tree, _, _ = strings.Cut(tree, "\n## ")
	for tool := range tools {
		if !strings.Contains(tree, "\n  "+tool+"/ ") {
			t.Errorf("cmd/%s has no row in README's \"What is in here\"", tool)
		}
	}
}

// metricName matches a quoted registry name: "<family>_<snake_case>".
var metricName = regexp.MustCompile(`"((?:netsim|mac|pep|phy|tstat|dnssim|faults|tunnel|live)_[a-z0-9_]+)"`)

// TestBenchmarkMetricNamesRegistered guards the frozen benchmark's
// silent zero: its counter(name) reads 0 for a name the registry does
// not hold, so deleting or renaming a metric it reads would quietly
// disarm a validity rule (live conservation, pepload leak). Every
// registry name quoted under benchmark/ must be registered.
func TestBenchmarkMetricNamesRegistered(t *testing.T) {
	files, err := filepath.Glob("benchmark/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources found: %v", err)
	}
	read := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metricName.FindAllStringSubmatch(string(src), -1) {
			read[m[1]] = true
		}
	}
	delete(read, "mac_prebuild") // manifest stage key, not a metric
	if len(read) == 0 {
		t.Fatal("found no registry names under benchmark/ — has counter(name) moved?")
	}
	for name := range read {
		if _, ok := obs.Default.Get(name); !ok {
			t.Errorf("benchmark/ reads %q, which is not registered (counter() would read 0)", name)
		}
	}
}

// TestEveryMetricHasAReader is the other half of the doc cross-checks: a
// registered metric must be read somewhere, not merely written and
// documented. A reader is the CI workflow, the live dashboard, the
// benchmark, Go code or a test that names it in a string literal or
// reads its variable (Value/Count/Total/Sum), OBSERVABILITY.md text
// outside the metric's own table row, or the DESIGN.md §6 model→metric
// table. A metric with none of these is deleted, or — for an error or
// fault counter — given the runbook line that tells an operator what a
// nonzero value means.
func TestEveryMetricHasAReader(t *testing.T) {
	var corpus strings.Builder // everything that counts as reading a name
	mustRead := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	corpus.WriteString(mustRead(".github/workflows/ci.yml"))
	corpus.WriteString(mustRead("internal/live/dashboard.html"))
	_, sec6, ok := strings.Cut(mustRead("DESIGN.md"), "\n## 6. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 6")
	}
	sec6, _, _ = strings.Cut(sec6, "\n## ")
	corpus.WriteString(sec6)
	for _, line := range strings.Split(mustRead("OBSERVABILITY.md"), "\n") {
		if strings.HasPrefix(line, "| `") { // table row: its first cell declares, the rest may read
			_, line, _ = strings.Cut(line[1:], "|")
		}
		corpus.WriteString(line + "\n")
	}

	// Go sources: a quoted name outside its own obs.New* call reads by
	// name; <var>.Value()/Count()/Total()/Sum() reads through the package
	// variable (a metric registered into a struct field has none).
	registration := regexp.MustCompile(`(?:(\w+)\s*=|\w+:)\s*obs\.New(?:Counter|Gauge|Timer|Histogram)\(\s*"([^"]+)"`)
	varOf := map[string]string{}
	var goSrc strings.Builder
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		for _, line := range strings.Split(mustRead(path), "\n") {
			if m := registration.FindStringSubmatch(line); m != nil {
				varOf[m[2]] = m[1]
				continue
			}
			goSrc.WriteString(line + "\n")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{} // every name some reader mentions
	for _, w := range regexp.MustCompile(`[a-z0-9_]+`).FindAllString(corpus.String(), -1) {
		read[w] = true
	}
	code := goSrc.String()
	for _, m := range metricName.FindAllStringSubmatch(code, -1) {
		read[m[1]] = true
	}
	varRead := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b(\w+)\.(?:Value|Count|Total|Sum)\(`).FindAllStringSubmatch(code, -1) {
		varRead[m[1]] = true
	}

	for _, s := range obs.Default.Snapshot() {
		if read[s.Name] || varRead[varOf[s.Name]] {
			continue
		}
		t.Errorf("metric %q is written but nothing reads it: delete it, or give it a gate, a panel or a runbook line", s.Name)
	}
}
