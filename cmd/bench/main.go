// Command bench is the repo's benchmark: it drives the real pipeline
// through its public functions only, from a traceroute result entering to
// the replica byte leaving, on fixtures generated from -seed, prints every
// metric by name and unit, checks the outputs, and writes one
// machine-generated result file with a host block. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "one of the four workload names, or all")
		seedArg      = fs.String("seed", "1", "the only input to fixture generation (any 64-bit integer)")
		seconds      = fs.Float64("seconds", -1, "how long the timed passes of one workload run (default: the scale's)")
		traced       = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run with the per-layer metrics")
		scaleName    = fs.String("scale", "full", "full, or smoke (seconds-sized, run by the package test)")
		outPath      = fs.String("out", "", "result file (default .bench_out/<workload>-seed<n>[.trace].json)")
		spansPath    = fs.String("trace-out", "", "span file of the traced run (default next to -out, .spans.json)")
		tmpRoot      = fs.String("tmp", ".bench_tmp", "scratch directory for the NDJSON fixture and the segment stores")
		compare      = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		list         = fs.Bool("list", false, "print every workload and metric with its unit and meaning")
		emit         = fs.Bool("emit-benchmark-json", false, "print BENCHMARK.json as generated from the tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printTables(stdout)
		return 0
	case *emit:
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// A negative seed is as good a seed as any: it is used by its bits.
	var seed uint64
	if u, err := strconv.ParseUint(*seedArg, 10, 64); err == nil {
		seed = u
	} else if i, err := strconv.ParseInt(*seedArg, 10, 64); err == nil {
		seed = uint64(i)
	} else {
		fmt.Fprintf(stderr, "bench: -seed %q is not a 64-bit integer\n", *seedArg)
		return 2
	}

	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *seconds >= 0 {
		sc.Seconds = *seconds
	}
	var names []string
	if *workloadName == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(*workloadName); ok {
		names = []string{*workloadName}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", *workloadName)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	suffix := ".json"
	if *traced == 1 {
		suffix = ".trace.json"
	}
	if *outPath == "" {
		*outPath = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d%s", *workloadName, seed, suffix))
	}
	if *spansPath == "" {
		*spansPath = (*outPath)[:len(*outPath)-len(filepath.Ext(*outPath))] + ".spans.json"
	}

	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	res := resultFile{Schema: resultSchema, Host: hostInfo(seed, sc)}
	var spans []span
	code := 0
	for _, name := range names {
		e := &env{sc: sc, seed: seed, tmp: tmp, tr: newTracer(name), layerRun: *traced == 1}
		var r row
		if *traced == 1 {
			r, err = runTraced(e, name)
		} else {
			r, err = runUntraced(e, name)
		}
		if err != nil {
			// No result line: the run did not measure anything.
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.Rows = append(res.Rows, r)
		spans = append(spans, e.tr.spans...)
		printRow(stdout, r)
		if !r.Correct {
			code = 1
		}
		// The line the driver reads: last on stdout for a one-workload run.
		fmt.Fprintln(stdout, r.driverLine())
	}
	if err := res.write(*outPath); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traced == 1 {
		if err := writeSpans(*spansPath, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runUntraced is the end-to-end run: Setups set-ups (setup_s is their
// median), one discarded warm-up pass, then timed passes on a fresh
// pipeline until Seconds have gone by; every value is the median over
// passes.
func runUntraced(e *env, name string) (row, error) {
	wl := newWorkload(name)
	defer wl.teardown()
	var setups []float64
	for i := 0; i < e.sc.Setups; i++ {
		wl.teardown()
		t0 := time.Now()
		if err := wl.setup(e); err != nil {
			return row{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	samples, err := timedPasses(e, wl, func(int) bool { return false })
	if err != nil {
		return row{}, err
	}
	r := newRow(e, name, false, len(samples))
	r.Setups = len(setups)
	r.put("setup_s", setups)
	r.put("ops_per_s", valuesOf(samples, func(s sample) float64 { return float64(s.ops) / s.wall.Seconds() }))
	r.put("cpu_us_per_op", valuesOf(samples, func(s sample) float64 { return s.cpu * 1e6 / float64(s.ops) }))
	r.put("state_mb", valuesOf(samples, func(s sample) float64 { return s.stateMB }))
	r.put("latency_ms_p50", valuesOf(samples, func(s sample) float64 { return s.latencyMS }))
	return r, nil
}

// runTraced is the separate traced run: one set-up, a warm-up, then passes
// alternating tracing off and on (their difference is the overhead), then
// each exercised layer's exported functions probed in isolation.
func runTraced(e *env, name string) (row, error) {
	wl := newWorkload(name)
	defer wl.teardown()
	if err := wl.setup(e); err != nil {
		return row{}, fmt.Errorf("set-up: %w", err)
	}
	traced := func(id int) bool { return id%2 == 0 }
	samples, err := timedPasses(e, wl, traced)
	if err != nil {
		return row{}, err
	}
	var off, on []float64
	for i, s := range samples {
		perOp := float64(s.wall) / float64(s.ops)
		if traced(i + 1) { // pass ids count from 1
			on = append(on, perOp)
		} else {
			off = append(off, perOp)
		}
	}
	m := make(map[string]float64, len(perLayer))
	if err := wl.layers(e, m); err != nil {
		return row{}, fmt.Errorf("layer probes: %w", err)
	}
	if len(on) > 0 && len(off) > 0 {
		// Fastest against fastest: whatever else the host was doing only
		// ever adds to a pass, and it adds more than the spans do.
		m["bench.trace_overhead_pct"] = (slices.Min(on)/slices.Min(off) - 1) * 100
	}
	r := newRow(e, name, true, len(samples))
	r.Setups = 1
	for _, d := range perLayer {
		v := m[d.Name] // a layer the workload bypasses did no work: zero
		r.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit, N: 1}
		delete(m, d.Name)
	}
	for name := range m {
		return row{}, fmt.Errorf("layer probe emitted undeclared metric %q", name)
	}
	return r, nil
}

// timedPasses runs the warm-up and then passes 1, 2, ... until both
// MinPasses and Seconds are met; traceOn says which pass ids record spans.
func timedPasses(e *env, wl workload, traceOn func(id int) bool) ([]sample, error) {
	if e.sc.WarmUp {
		if _, err := wl.pass(e, 0); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
	}
	var samples []sample
	deadline := time.Now().Add(time.Duration(e.sc.Seconds * float64(time.Second)))
	for id := 1; id <= e.sc.MinPasses || time.Now().Before(deadline); id++ {
		e.tr.enable(traceOn(id), id)
		s, err := wl.pass(e, id)
		e.tr.enable(false, id)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", id, err)
		}
		if s.ops <= 0 || s.wall <= 0 {
			return nil, fmt.Errorf("pass %d did no work", id)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

func valuesOf(samples []sample, f func(sample) float64) []float64 {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = f(s)
	}
	return vals
}

func newRow(e *env, name string, traced bool, passes int) row {
	return row{
		Workload: name, Traced: traced, Passes: passes,
		Attempted: e.attempted, Failed: e.failed, Correct: e.failed == 0 && e.attempted > 0,
		Checks: e.checks, Metrics: map[string]metricOut{},
	}
}

// noisyAbove is the IQR/median over passes past which a metric is flagged
// instead of hidden.
const noisyAbove = 0.10

func (r *row) put(name string, vals []float64) {
	d := summarize(vals)
	unit := ""
	for _, m := range endToEnd {
		if m.Name == name {
			unit = m.Unit
		}
	}
	r.Metrics[name] = metricOut{Value: d.P50, Unit: unit, P25: d.P25, P75: d.P75, N: d.N, Noisy: d.spread() > noisyAbove, Samples: vals}
}

// printRow prints every metric of the row by name with its unit, then the
// correctness checks.
func printRow(w io.Writer, r row) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "traced run, per layer"
	}
	fmt.Fprintf(w, "== %s (%s; %d passes, %d set-ups)\n", r.Workload, kind, r.Passes, r.Setups)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " quartiles %.4f..%.4f over %d", m.P25, m.P75, m.N)
		}
		if m.Noisy {
			fmt.Fprint(w, "  NOISY")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-36s %14d of %d attempted\n", "failed_ops", r.Failed, r.Attempted)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "MISS"
		}
		fmt.Fprintf(w, "  check %s %-36s %s\n", verdict, c.Name, c.Detail)
	}
}
