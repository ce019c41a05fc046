package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"borealis/internal/client"
	"borealis/internal/tuple"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// fakeClock steps by fixed amounts so span durations are exact.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestSelfTimeIsSpanMinusNested(t *testing.T) {
	clk := &fakeClock{}
	tr := &tracer{now: clk.now}
	// engine callback [0,100) holding a send [10,30) that holds a
	// delivery handler [15,25), then a second send [40,45); a separate
	// source tick [200,207).
	tr.begin(cbEngine)
	clk.t = 10
	tr.begin(sendNetsim)
	clk.t = 15
	tr.begin(hNode)
	clk.t = 25
	tr.end()
	clk.t = 30
	tr.end()
	clk.t = 40
	tr.begin(sendNetsim)
	clk.t = 45
	tr.end()
	clk.t = 100
	tr.end()
	clk.t = 200
	tr.begin(cbSource)
	clk.t = 207
	tr.end()

	want := map[kind]int64{cbEngine: 100 - 20 - 5, sendNetsim: (20 - 10) + 5, hNode: 10, cbSource: 7}
	for k, w := range want {
		if tr.self[k] != w {
			t.Errorf("%s self = %d, want %d", kindNames[k], tr.self[k], w)
		}
	}
	if tr.spans[sendNetsim] != 2 {
		t.Errorf("send spans = %d, want 2", tr.spans[sendNetsim])
	}
	if tr.top != 107 || tr.selfSum() != tr.top {
		t.Errorf("top %d, self sum %d; want both 107", tr.top, tr.selfSum())
	}
}

func TestCallbackKindOf(t *testing.T) {
	cases := map[string]kind{
		"borealis/internal/engine.(*Engine).svcDone-fm":        cbEngine,
		"borealis/internal/source.(*Source).tick-fm":           cbSource,
		"borealis/internal/netsim.(*Net).deliver-fm":           cbNetsim,
		"borealis/internal/operator.(*SUnion).armTimer.func1":  cbOperator,
		"borealis/internal/node.(*OutputBuffer).flush-fm":      cbNode,
		"borealis/internal/transport.(*TCP).deliver-fm":        cbTransport,
		"borealis/internal/scenario.(*run).installBurst.func1": cbOther,
	}
	for name, want := range cases {
		if got := callbackKindOf(name); got != want {
			t.Errorf("%s -> %s, want %s", name, kindNames[got], kindNames[want])
		}
	}
}

// A tuple due 300ms after the clocks started but delivered 420ms after
// is 120ms late, although the event-anchored Delivery.At reads exactly its
// scheduled time.
func TestDueLatencyOnWallClock(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	o := newObserver(100_000) // D = 100ms
	o.wall, o.start, o.speed = true, start, 1
	delivered := start.Add(420 * time.Millisecond)
	o.now = func() time.Time { return delivered }
	o.observe(client.Delivery{At: 300_000, Tuple: tuple.Tuple{Type: tuple.Insertion, STime: 300_000}})
	if len(o.latMS) != 1 || o.latMS[0] != 120 {
		t.Fatalf("latency %v ms, want [120]", o.latMS)
	}
	if o.late != 1 {
		t.Errorf("late = %d, want 1 (120ms exceeds D)", o.late)
	}
	// Same stime again carries no new information.
	o.observe(client.Delivery{At: 300_000, Tuple: tuple.Tuple{Type: tuple.Insertion, STime: 300_000}})
	if len(o.latMS) != 1 {
		t.Errorf("repeated stime counted as new information")
	}
	// At speed 2 the clock runs twice as fast: stime 300ms is due 150ms
	// after start.
	if d := dueLatency(start, 2, 300_000, start.Add(200*time.Millisecond)); d != 50*time.Millisecond {
		t.Errorf("speed-2 lateness %v, want 50ms", d)
	}
}

func TestAuditCountsMissingBeforeHorizon(t *testing.T) {
	ins := func(st int64) tuple.Tuple { return tuple.Tuple{Type: tuple.Insertion, STime: st, Data: []int64{st}} }
	ref := []tuple.Tuple{ins(1), ins(2), ins(3), ins(8), ins(9)}
	// The audited view stops after stime 3: 8 lies before horizon-D and
	// is missing, 9 may still be in flight.
	refStable, missing, res := audit([]tuple.Tuple{ins(1), ins(2), ins(3)}, ref, 10, 2)
	if refStable != 5 || missing != 1 || !res.OK {
		t.Errorf("prefix view: refStable %d missing %d ok %v; want 5 1 true", refStable, missing, res.OK)
	}
	// A divergence at position 1 makes the rest before the horizon missing.
	_, missing, res = audit([]tuple.Tuple{ins(1), ins(5), ins(3)}, ref, 10, 2)
	if missing != 3 || res.OK {
		t.Errorf("diverging view: missing %d ok %v; want 3 false", missing, res.OK)
	}
}

// TestBenchmarkFileListsReportedMetrics keeps BENCHMARK.json and the JSON
// line in step.
func TestBenchmarkFileListsReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	if got := names(b.Workloads); !slices.Equal(got, ws) {
		t.Errorf("workloads %v, benchmark runs %v", got, ws)
	}
	if got := names(b.EndToEnd); !slices.Equal(got, gatedE2E) {
		t.Errorf("end_to_end %v, benchmark reports %v", got, gatedE2E)
	}
	if got := names(b.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("per_layer %v, benchmark reports %v", got, layerMetrics)
	}
}
