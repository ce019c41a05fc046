package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"borealis/internal/client"
	"borealis/internal/tuple"
)

// clientObserver records what the client sees on every delivery, with the
// bookkeeping of the scenario report: a delivery carries new information
// when its stime exceeds every stime delivered before, and its latency is
// measured against the availability bound D.
//
// On a virtual clock the latency is the delivery's clock time minus the
// tuple's stime. On a wall clock Delivery.At is useless for that: the wall
// clock's Now is event-anchored, so At equals the scheduled instant even
// when the run loop fires late. There the latency runs from the tuple's
// due time, start + stime/speed, to the real instant now() of delivery.
type clientObserver struct {
	boundUS int64
	// Wall-clock mode: start is the real instant the clocks were started
	// at, speed their time scale, now the real-time source.
	wall  bool
	start time.Time
	speed float64
	now   func() time.Time

	maxSTime      int64
	latMS         []float64 // per new-information delivery
	late          uint64    // new-information deliveries later than D
	lastRecDoneUS int64
}

func newObserver(boundUS int64) *clientObserver {
	return &clientObserver{boundUS: boundUS, maxSTime: -1, now: time.Now}
}

func (o *clientObserver) observe(d client.Delivery) {
	t := d.Tuple
	switch {
	case t.IsData():
		if t.STime <= o.maxSTime {
			return
		}
		o.maxSTime = t.STime
		latUS := d.At - t.STime
		if o.wall {
			latUS = int64(dueLatency(o.start, o.speed, t.STime, o.now()) / time.Microsecond)
		}
		o.latMS = append(o.latMS, float64(latUS)/1e3)
		if latUS > o.boundUS {
			o.late++
		}
	case t.Type == tuple.RecDone:
		o.lastRecDoneUS = d.At
	}
}

// dueLatency is how long after its due time a tuple stamped stime
// (microseconds of a clock started at start and running speed times real
// time) was delivered at the real instant at.
func dueLatency(start time.Time, speed float64, stime int64, at time.Time) time.Duration {
	due := start.Add(time.Duration(float64(stime) * float64(time.Microsecond) / speed))
	return at.Sub(due)
}

// cpuNS returns the user plus system CPU time the process has used.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, allocObjects float64
	gcCPU, usedCPU           float64 // seconds
	liveBytes                float64
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocBytes:   v(0),
		allocObjects: v(1),
		gcCPU:        v(2),
		usedCPU:      v(3) - v(4),
		liveBytes:    v(5),
	}
}
