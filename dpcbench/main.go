// Command dpcbench is the repository's benchmark. It runs four workloads
// of the DPC system from one process and reports the paper's client
// metrics end to end, and, in a separate traced pass, the cost of each
// layer timed from outside through the layers' public entry points.
//
//	go run . --workload chain-recovery --seed 7 --seconds 20 --trace 0
//	go run . --workload all --seconds 20
//
// The last line of standard output is one JSON object: whether every
// correctness check passed, how many checks were attempted and failed, and
// the metrics BENCHMARK.json lists (end to end with --trace 0, per layer
// with --trace 1). Above it, every metric of the mode, listed or not, is
// printed by name with its unit and sample count. A failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// metric is one reported number. ok is false when the value is not
// supported by its samples (a percentile with too short a tail) or does
// not apply to the workload; such a metric prints as n/a.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
	ok    bool
}

// check is one correctness check of a workload's output.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is everything one workload run reports.
type result struct {
	workload string
	e2e      []metric
	layers   []metric
	checks   []check
	info     []string
}

func (r *result) addE2E(name string, v float64, unit string, n int, ok bool) {
	r.e2e = append(r.e2e, metric{name, v, unit, n, ok})
}

func (r *result) addLayer(name string, v float64, unit string, n int) {
	r.layers = append(r.layers, metric{name, v, unit, n, true})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) failed() int {
	n := 0
	for _, c := range r.checks {
		if !c.ok {
			n++
		}
	}
	return n
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{"chain-steady", func(c config) (*result, error) { return runVirtual(chainSteady, c) }},
	{"chain-recovery", func(c config) (*result, error) { return runVirtual(chainRecovery, c) }},
	{"join-steady", func(c config) (*result, error) { return runVirtual(joinSteady, c) }},
	{"tcp-relay", runTCPRelay},
}

// gatedE2E and layerMetrics are the metrics BENCHMARK.json lists, in its
// order: the JSON line carries exactly these.
var gatedE2E = []string{"throughput_tps", "cpu_ns_per_tuple", "peak_heap_mb", "setup_s"}

var layerMetrics = []string{
	"source.ns_per_tuple", "source.log_peak_tuples",
	"netsim.ns_per_msg", "netsim.msgs_per_ktuple",
	"node.handle_ns_per_msg", "node.inputmgr_log_peak_tuples", "node.outbuf_peak_tuples",
	"node.reconcile_s_max", "node.grant_wait_s_max",
	"engine.ns_per_tuple", "engine.max_queue",
	"operator.sunion_timer_ns_per_tuple",
	"client.ns_per_delivery",
	"gc.alloc_bytes_per_tuple", "gc.allocs_per_tuple", "gc.cpu_share",
	"transport.encode_ns_per_frame", "transport.decode_ns_per_frame", "transport.bytes_per_tuple",
	"transport.send_ns_per_msg", "transport.dropped_data_share", "transport.ctl_stalls",
	"runtime.lag_ms_p99",
	"scenario.compile_s",
	"trace.overhead_share",
}

func main() {
	name := flag.String("workload", "all", "workload to run: chain-steady, chain-recovery, join-steady, tcp-relay, or all")
	seed := flag.Int64("seed", 7, "workload seed; overrides the seed of the workload's spec")
	seconds := flag.Float64("seconds", 20, "how long the measured part of a run lasts, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatalf("unknown workload %q", *name)
	}
	var cpuFile *os.File
	if *cpuprofile != "" {
		var err error
		if cpuFile, err = os.Create(*cpuprofile); err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatalf("%v", err)
		}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Printf("dpcbench: %s, GOMAXPROCS %d of %d CPUs, seed %d, %gs per workload, trace %v\n",
		goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU(), cfg.seed, cfg.seconds, cfg.trace)
	failed := false
	for _, w := range todo {
		r, err := w.run(cfg)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		r.workload = w.name
		r.print(os.Stdout, cfg.trace)
		line, err := r.jsonLine(cfg.trace)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Println(line)
		if r.failed() > 0 {
			failed = true
		}
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("%v", err)
		}
		goruntime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpcbench: "+format+"\n", args...)
	os.Exit(2)
}

// print writes the human-readable report of one workload.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n== %s\n", r.workload)
	for _, s := range r.info {
		fmt.Fprintf(w, "  %s\n", s)
	}
	table := func(title string, ms []metric) {
		fmt.Fprintf(w, "  %-36s %16s %-12s %s\n", title, "value", "unit", "samples")
		for _, m := range ms {
			v := "n/a"
			if m.ok {
				v = fmt.Sprintf("%.6g", m.value)
			}
			fmt.Fprintf(w, "  %-36s %16s %-12s %d\n", m.name, v, m.unit, m.n)
		}
	}
	if traced {
		table("per-layer metric", r.layers)
	} else {
		table("end-to-end metric", r.e2e)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", status, c.name, c.detail)
	}
}

// jsonLine renders the result line: the listed metrics only, each present.
func (r *result) jsonLine(traced bool) (string, error) {
	names, ms := gatedE2E, r.e2e
	if traced {
		names, ms = layerMetrics, r.layers
	}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	var missing []string
	for _, n := range names {
		m, ok := byName[n]
		if !ok || !m.ok {
			missing = append(missing, n)
			continue
		}
		out[n] = jm{m.value, m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed() == 0, len(r.checks), r.failed(), out})
	return string(b), err
}
