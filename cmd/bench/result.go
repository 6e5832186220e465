package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const resultSchema = "pinpoint-bench/1"

// resultFile is the one machine-generated result: where it ran, with which
// settings, and one row per workload.
type resultFile struct {
	Schema string    `json:"schema"`
	Host   hostBlock `json:"host"`
	Rows   []row     `json:"rows"`
}

// hostBlock names the host and the settings, so a number is never read
// without them.
type hostBlock struct {
	CPU        string    `json:"cpu"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	W          int       `json:"w"`  // every worker knob and the load-generator clients, end to end
	WN         int       `json:"wn"` // the N of the per-layer _wN probes
	Go         string    `json:"go"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Scale      string    `json:"scale"`
	Seconds    float64   `json:"seconds"` // timed passes per workload; P is each row's passes
	Load1      float64   `json:"load1_at_start"`
	Started    time.Time `json:"started"`
}

type row struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Passes    int                  `json:"passes"`
	Setups    int                  `json:"setups"`
	Attempted int                  `json:"attempted_ops"`
	Failed    int                  `json:"failed_ops"`
	Correct   bool                 `json:"correct"`
	Metrics   map[string]metricOut `json:"metrics"`
	Checks    []check              `json:"checks"`
}

// metricOut is a reported value: the median over N passes (or set-ups) with
// the quartiles next to it; per-layer values are single measurements.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	N     int     `json:"n"`
	Noisy bool    `json:"noisy,omitempty"` // IQR/median over passes above noisyAbove
	// Samples are the per-pass values behind an end-to-end median, in pass
	// order, so a reader can recompute any statistic.
	Samples []float64 `json:"samples,omitempty"`
}

// driverLine is the row as the one JSON object the benchmark contract
// reads from the last line of stdout.
func (r row) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		doc.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(doc)
	if err != nil { // a NaN or Inf value: report the run as incorrect, not as a crash
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(r.Attempted, 1), max(r.Failed, 1))
	}
	return string(b)
}

func (f resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}

func hostInfo(seed uint64, sc scaleDef) hostBlock {
	h := hostBlock{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: W, WN: probeWorkers(),
		Go: runtime.Version(), Commit: "unknown", Seed: seed, Scale: sc.Name, Seconds: sc.Seconds,
		Started: time.Now().UTC(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		s := bufio.NewScanner(f)
		for s.Scan() {
			if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			h.Load1, _ = strconv.ParseFloat(fields[0], 64) // unparsable: stays 0
		}
	}
	// The commit is what the go tool stamped at build time; a checkout
	// that is not a git repository has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// --- -compare ---------------------------------------------------------------

// verdict of one end-to-end metric on one workload between two result files.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vRegressed  = "regressed"
	vUnresolved = "unresolved" // spread over passes wider than the bound
)

// judge compares b against a for a metric where better is "lower" or
// "higher". worse is the share of a's median by which b's median is worse
// (negative: better). Past the bound it is a regression; a spread over
// passes wider than the bound leaves anything else unresolved, unless all
// of b's interquartile range reads better than all of a's.
func judge(a, b metricOut, better string, bound float64) (verdict string, worse float64) {
	if a.Value == 0 {
		return vUnresolved, 0
	}
	worse = (b.Value - a.Value) / a.Value
	clear := b.P75 < a.P25
	if better == "higher" {
		worse = -worse
		clear = b.P25 > a.P75
	}
	spread := max(dist{P25: a.P25, P50: a.Value, P75: a.P75}.spread(), dist{P25: b.P25, P50: b.Value, P75: b.P75}.spread())
	switch {
	case worse > bound:
		return vRegressed, worse
	case spread > bound && clear:
		return vImproved, worse
	case spread > bound:
		return vUnresolved, worse
	case -worse > bound:
		return vImproved, worse
	}
	return vUnchanged, worse
}

// compareFiles prints, per workload row and end-to-end metric, the verdict
// of b against a under the benchmark's own bounds. Exit 1 on any
// regression or a higher failed share.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b resultFile, w io.Writer) int {
	if a.Host.CPU != b.Host.CPU || a.Host.NProc != b.Host.NProc || a.Host.W != b.Host.W || a.Host.Scale != b.Host.Scale {
		fmt.Fprintf(w, "warning: hosts or settings differ (%s/%d cpus/W=%d/%s vs %s/%d cpus/W=%d/%s)\n",
			a.Host.CPU, a.Host.NProc, a.Host.W, a.Host.Scale, b.Host.CPU, b.Host.NProc, b.Host.W, b.Host.Scale)
	}
	bad, compared := 0, 0
	for _, ra := range a.Rows {
		if ra.Traced {
			continue // per-layer metrics have no bound
		}
		for _, rb := range b.Rows {
			if rb.Traced || rb.Workload != ra.Workload {
				continue
			}
			compared++
			fmt.Fprintf(w, "== %s (passes %d vs %d)\n", ra.Workload, ra.Passes, rb.Passes)
			for _, d := range endToEnd {
				ma, okA := ra.Metrics[d.Name]
				mb, okB := rb.Metrics[d.Name]
				if !okA || !okB {
					fmt.Fprintf(w, "  %-16s missing from one file\n", d.Name)
					bad++
					continue
				}
				v, worse := judge(ma, mb, d.Better, d.Bound)
				if v == vRegressed {
					bad++
				}
				fmt.Fprintf(w, "  %-16s %-10s %14.4f -> %14.4f %-4s  %+6.1f%% worse (bound %.0f%%, base %.4f)\n",
					d.Name, v, ma.Value, mb.Value, d.Unit, worse*100, d.Bound*100, ma.Value)
			}
			shareA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
			shareB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
			v := vUnchanged
			if shareB > shareA {
				v = vRegressed
				bad++
			}
			fmt.Fprintf(w, "  %-16s %-10s %d of %d -> %d of %d\n", "failed_ops", v, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "no workload has an end-to-end row in both files")
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regressed\n", bad)
		return 1
	}
	return 0
}
