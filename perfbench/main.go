// Command perfbench is llstar's benchmark. One run measures one
// workload for a fixed time, checks every output it times, and prints
// the end-to-end metrics; a traced run (--trace 1) adds the layer
// ladder and prints the per-layer metrics. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is one workload: setup is what a user waits for before the first
// operation can run and is timed; check runs the differential oracle
// on every input and a warm-up pass, untimed; loop is the measured
// closed loop.
type env interface {
	setup() error
	check() error
	loop(d time.Duration, tr *tracer) *loopStats
	close()
}

// Setup runs this many times per run; setup_s is the median.
const setupRepeats = 3

var workloadNames = []string{"serve-mixed", "parse-batch", "session-edit", "serve-fleet"}

func newEnv(name string, specs []gspec, seed int64, dir string) (env, error) {
	switch name {
	case "serve-mixed":
		return newServeEnv(false, specs, seed, dir)
	case "serve-fleet":
		return newServeEnv(true, specs, seed, dir)
	case "parse-batch":
		return newBatchEnv(specs, seed), nil
	case "session-edit":
		return newEditEnv(specs, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// runMeta identifies what produced a result.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Inputs     string `json:"inputs"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

// commit is the revision run.sh found, or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func inputsDesc(workload string) string {
	switch workload {
	case "serve-mixed", "serve-fleet":
		return fmt.Sprintf("6 grammars x %d variants x %d lines", serveVariants, serveLines)
	case "parse-batch":
		return fmt.Sprintf("6 grammars x %d variants x %d lines", batchVariants, batchLines)
	}
	return fmt.Sprintf("json %d elements, java15 and csharp %d lines; %d-edit replay per document", jsonElements, batchLines, editReplay)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the layer ladder and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	meta := runMeta{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		Inputs: inputsDesc(*workload), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit(),
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	res, err := runWorkload(meta, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its result.
func runWorkload(meta runMeta, dir string) (*result, error) {
	specs, err := grammarSpecs()
	if err != nil {
		return nil, err
	}
	e, err := newEnv(meta.Workload, specs, meta.Seed, dir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	b, _ := json.Marshal(meta)
	fmt.Printf("perfbench %s\n", b)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		err := e.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	if err := e.check(); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	d := time.Duration(meta.Seconds) * time.Second
	if !meta.Trace {
		ls := measured(e, d, nil)
		res := endToEnd(ls, median(setups))
		printEndToEnd(meta.Workload, res, ls, setups)
		return res, nil
	}

	// Traced run: the same loop in four interleaved slices, untraced
	// and with one span per operation, for the tracing overhead; then
	// the ladder.
	tr := newTracer()
	plain, traced := &loopStats{}, &loopStats{}
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			plain.merge(measured(e, d/4, nil))
		} else {
			traced.merge(measured(e, d/4, tr))
		}
	}
	e.close()
	r0, r1 := endToEnd(plain, 0), endToEnd(traced, 0)
	fmt.Printf("tracing overhead (two interleaved slices of %s each): req_per_s %.2f untraced, %.2f traced (%+.2f%%); latency_p50_ms %.3f untraced, %.3f traced (%+.2f%%)\n",
		d/4, r0.Metrics["req_per_s"].Value, r1.Metrics["req_per_s"].Value,
		change(r0.Metrics["req_per_s"].Value, r1.Metrics["req_per_s"].Value),
		r0.Metrics["latency_p50_ms"].Value, r1.Metrics["latency_p50_ms"].Value,
		change(r0.Metrics["latency_p50_ms"].Value, r1.Metrics["latency_p50_ms"].Value))

	l := newLadder(specs, meta.Seed, dir)
	defer l.close()
	if err := l.setup(); err != nil {
		return nil, fmt.Errorf("ladder setup: %w", err)
	}
	n, lerr := l.run(tr)
	res := &result{
		Attempted: plain.attempted + traced.attempted + n,
		Failed:    plain.failed + traced.failed,
	}
	if lerr != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: ladder:", lerr)
		res.Metrics = map[string]metric{}
	} else {
		l.printTable(os.Stdout)
		res.Metrics = l.layerMetrics()
	}
	for _, ls := range []*loopStats{plain, traced} {
		if ls.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", ls.firstErr)
		}
	}
	res.Correct = res.Failed == 0
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", meta.Workload, meta.Seed))
	if err := tr.write(path, meta); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// measured runs one loop, recording the process's peak resident
// memory while it runs. Garbage from setup and the oracle is collected
// and returned to the OS first, so the peak is the workload's own.
func measured(e env, d time.Duration, tr *tracer) *loopStats {
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	ls := e.loop(d, tr)
	ls.rssMB = rss.mb()
	return ls
}

func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// endToEnd computes the end-to-end metrics of one loop.
func endToEnd(ls *loopStats, setup float64) *result {
	sortDurations(ls.lat)
	ops, lines := ls.rates()
	return &result{
		Correct:   ls.failed == 0,
		Attempted: ls.attempted,
		Failed:    ls.failed,
		Metrics: map[string]metric{
			"setup_s":        {setup, "s"},
			"req_per_s":      {ops, "1/s"},
			"latency_p50_ms": {quantileMS(ls.lat, 0.50), "ms"},
			"latency_p99_ms": {quantileMS(ls.lat, 0.99), "ms"},
			"lines_per_s":    {lines, "lines/s"},
			"peak_rss_mb":    {ls.rssMB, "MB"},
		},
	}
}

// printEndToEnd writes the human-readable table: every end-to-end
// metric with its unit, and the ones only some workloads have.
func printEndToEnd(workload string, res *result, ls *loopStats, setups []float64) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %14s %-8s %s\n", "metric", "value", "unit", "based on")
	for _, n := range names {
		m := res.Metrics[n]
		basis := fmt.Sprintf("%d operations", len(ls.lat))
		switch n {
		case "setup_s":
			basis = fmt.Sprintf("median of %d setups %v", len(setups), roundAll(setups))
		case "req_per_s", "lines_per_s":
			basis = fmt.Sprintf("median of %d chunks", len(ls.chunks))
		case "latency_p99_ms":
			basis = fmt.Sprintf("%d operations, %d beyond p99", len(ls.lat), beyondP99(len(ls.lat)))
		case "peak_rss_mb":
			basis = fmt.Sprintf("whole process, sampled every %v during the loop", rssEvery)
		}
		fmt.Printf("%-16s %14.4f %-8s %s\n", n, m.Value, m.Unit, basis)
	}
	if workload == "session-edit" {
		// The operation of session-edit is Session.Edit, so its
		// latencies are the edit latencies, here in microseconds.
		fmt.Printf("%-16s %14.4f %-8s %s\n", "edit_p50_us", 1000*res.Metrics["latency_p50_ms"].Value, "us", "latency_p50_ms in us")
		fmt.Printf("%-16s %14.4f %-8s %s\n", "edit_p99_us", 1000*res.Metrics["latency_p99_ms"].Value, "us", "latency_p99_ms in us")
	}
	fmt.Printf("%-16s %14.4f %-8s %d of %d operations failed or were incorrect\n",
		"failed_pct", pct(int(ls.failed), int(ls.attempted)), "%", ls.failed, ls.attempted)
	if ls.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", ls.firstErr)
	}
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
