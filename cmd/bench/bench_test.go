package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// driverResult is the last-line JSON object of one workload run.
type driverResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs every workload at the smoke scale and returns the driver
// line of each, by workload, plus the result file.
func runSmoke(t *testing.T, traced string) (map[string]driverResult, resultFile) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "smoke", "-workload", "all", "-seed", "7", "-trace", traced,
		"-out", out, "-tmp", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	var lines []driverResult
	for _, l := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r driverResult
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("driver line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	if len(lines) != len(workloads) {
		t.Fatalf("%d driver lines for %d workloads", len(lines), len(workloads))
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(workloads) {
		t.Fatalf("result file has %d rows for %d workloads", len(res.Rows), len(workloads))
	}
	byName := map[string]driverResult{}
	for i, w := range workloads {
		if res.Rows[i].Workload != w.Name {
			t.Fatalf("row %d is %s, want %s", i, res.Rows[i].Workload, w.Name)
		}
		for _, c := range res.Rows[i].Checks {
			if !c.OK {
				t.Errorf("%s: check %s missed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if len(res.Rows[i].Checks) == 0 {
			t.Errorf("%s: no correctness check ran", w.Name)
		}
		byName[w.Name] = lines[i]
	}
	h := res.Host
	if h.CPU == "" || h.NProc < 1 || h.GOMAXPROCS < 1 || h.W < 1 || h.WN < 2 || h.Go == "" || h.Commit == "" || h.Seed != 7 || h.Scale != "smoke" || h.Started.IsZero() {
		t.Errorf("incomplete host block: %+v", h)
	}
	return byName, res
}

// layerOf is the layer prefix of a per-layer metric name ("delay" of
// "delay.close_ms_p50").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// finite reports whether v can be written as a JSON number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkDeclared asserts the line carries exactly the declared metrics, each
// once, with its unit and a finite value.
func checkDeclared(t *testing.T, workload string, r driverResult, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", workload, r.Correct, r.Failed, r.Attempted)
	}
	declared := map[string]string{}
	for _, d := range defs {
		declared[d.Name] = d.Unit
	}
	for name, m := range r.Metrics {
		unit, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("%s: undeclared metric %s", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, declared %q", workload, name, m.Unit, unit)
		case m.Value == nil || !finite(*m.Value):
			t.Errorf("%s: %s has no finite value", workload, name)
		}
		delete(declared, name)
	}
	for name := range declared {
		t.Errorf("%s: declared metric %s was not emitted", workload, name)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	lines, res := runSmoke(t, "0")
	for name, r := range lines {
		checkDeclared(t, name, r, endToEnd)
		for m, v := range r.Metrics {
			if v.Value != nil && *v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; every one must be positive on every workload", name, m, *v.Value)
			}
		}
	}
	// The same file against itself: everything unchanged, exit 0.
	var out bytes.Buffer
	if code := compareResults(res, res, &out); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), vRegressed) || strings.Contains(out.String(), vImproved) {
		t.Errorf("a result compared with itself is not all unchanged/unresolved:\n%s", out.String())
	}
}

func TestSmokeTracedPerLayer(t *testing.T) {
	lines, _ := runSmoke(t, "1")
	for name, r := range lines {
		checkDeclared(t, name, r, perLayer)
	}
	// The bypass each workload promises is visible as zero work.
	zero := func(workload string, layers ...string) {
		for name, m := range lines[workload].Metrics {
			for _, l := range layers {
				if layerOf(name) == l && m.Value != nil && *m.Value != 0 {
					t.Errorf("%s bypasses %s, but %s = %v", workload, l, name, *m.Value)
				}
			}
		}
	}
	nonZero := func(workload string, names ...string) {
		for _, name := range names {
			if m := lines[workload].Metrics[name]; m.Value == nil || *m.Value <= 0 {
				t.Errorf("%s exercises %s, but it reports no work", workload, name)
			}
		}
	}
	serveSide := []string{"segstore", "feed", "follower", "chain", "serve"}
	zero(wReplay, append([]string{"atlas"}, serveSide...)...)
	zero(wLive, append([]string{"trace", "ingest"}, serveSide...)...)
	zero(wChain, "atlas", "trace", "ingest")
	zero(wRead, "atlas", "trace", "ingest", "ident", "ipmap", "delay", "forwarding", "stats", "engine", "core", "events", "segstore", "feed", "chain")
	nonZero(wReplay, "trace.decode_ns_per_result", "ingest.results_per_s_wN", "engine.results_per_s_w1", "delay.links_seen")
	nonZero(wLive, "atlas.gen_ns_per_result_w1", "engine.results_per_s_wN", "forwarding.routers_seen")
	nonZero(wChain, "core.results_per_s_wN", "segstore.bytes_per_bin", "feed.bytes_per_delta", "chain.close_publish_ms_p50", "serve.read_us_p50")
	nonZero(wRead, "serve.handler_us_p50", "serve.read_us_p50", "serve.not_modified_ratio", "follower.catchup_ms")
}

// The NDJSON fixture is a function of the seed alone: generator worker
// counts do not change a byte, another seed does.
func TestFixtureIsAFunctionOfTheSeed(t *testing.T) {
	sc := scales["smoke"]
	sha := func(seed uint64, genWorkers int) string {
		fx, err := buildInternet(sc, seed, genWorkers, t.TempDir(), true, true)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		if fx.ndjsonSize == 0 {
			t.Fatal("empty NDJSON fixture")
		}
		return fx.ndjsonSHA
	}
	one := sha(7, 1)
	if many := sha(7, probeWorkers()); many != one {
		t.Errorf("seed 7: sha256 %s with one generator worker, %s with several", one, many)
	}
	if other := sha(8, 1); other == one {
		t.Errorf("seeds 7 and 8 give the same fixture %s", one)
	}
}

// BENCHMARK.json at the root is the tables' own rendering and stays inside
// the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -emit-benchmark-json`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("per-layer %+v breaks the contract or names nothing it should move", m)
		}
	}
}

func TestJudge(t *testing.T) {
	m := func(p25, p50, p75 float64) metricOut { return metricOut{Value: p50, P25: p25, P75: p75, N: 10} }
	for _, c := range []struct {
		name   string
		a, b   metricOut
		better string
		bound  float64
		want   string
	}{
		{"same", m(99, 100, 101), m(99, 100, 101), "lower", 0.10, vUnchanged},
		{"within bound", m(99, 100, 101), m(104, 105, 106), "lower", 0.10, vUnchanged},
		{"slower past bound", m(99, 100, 101), m(114, 115, 116), "lower", 0.10, vRegressed},
		{"faster past bound", m(99, 100, 101), m(79, 80, 81), "lower", 0.10, vImproved},
		{"throughput fell", m(99, 100, 101), m(84, 85, 86), "higher", 0.10, vRegressed},
		{"throughput rose", m(99, 100, 101), m(119, 120, 121), "higher", 0.10, vImproved},
		{"too noisy to call", m(80, 100, 120), m(85, 105, 125), "lower", 0.10, vUnresolved},
		{"noisy but clear of the parent", m(80, 100, 120), m(50, 60, 70), "lower", 0.10, vImproved},
		{"noisy and worse past bound", m(80, 100, 120), m(100, 130, 160), "lower", 0.10, vRegressed},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsARegressionAndAHigherFailedShare(t *testing.T) {
	base := resultFile{Schema: resultSchema, Rows: []row{{Workload: wRead, Attempted: 100, Metrics: map[string]metricOut{}}}}
	for _, d := range endToEnd {
		base.Rows[0].Metrics[d.Name] = metricOut{Value: 100, P25: 99, P75: 101, Unit: d.Unit, N: 10}
	}
	clone := func() resultFile {
		c := base
		c.Rows = []row{base.Rows[0]}
		c.Rows[0].Metrics = map[string]metricOut{}
		for k, v := range base.Rows[0].Metrics {
			c.Rows[0].Metrics[k] = v
		}
		return c
	}
	var out bytes.Buffer
	slow := clone()
	slow.Rows[0].Metrics["latency_ms_p50"] = metricOut{Value: 150, P25: 149, P75: 151, Unit: "ms", N: 10}
	if code := compareResults(base, slow, &out); code != 1 || !strings.Contains(out.String(), vRegressed) {
		t.Errorf("a 50%% slower latency exits %d:\n%s", code, out.String())
	}
	failing := clone()
	failing.Rows[0].Failed = 1
	out.Reset()
	if code := compareResults(base, failing, &out); code != 1 {
		t.Errorf("a higher failed share exits %d:\n%s", code, out.String())
	}
}

// summarize must give the quartiles Python's statistics.quantiles(v, n=4)
// gives, because that is how the spread of this benchmark is judged.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.P25 != 2.75 || d.P50 != 5.5 || d.P75 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", d.P25, d.P50, d.P75)
	}
	d = summarize([]float64{3, 1, 2})
	if d.P25 != 1 || d.P50 != 2 || d.P75 != 3 {
		t.Errorf("quartiles of three %v %v %v, want 1 2 3", d.P25, d.P50, d.P75)
	}
}
