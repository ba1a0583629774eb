package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// span is one interval recorded by a traced run, around a call into one
// layer. Spans of one op share Op; Parent names the enclosing span of the
// same op, and is empty for the op span itself.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code. Spans are added
// from one goroutine only.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
}

func newTracer(workload string, on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{workload: workload, base: now()}
}

func (t *tracer) add(op int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Op: op, Parent: parent,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds(),
	})
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// memCounters is a snapshot of the Go runtime's allocation and GC totals.
type memCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// runtimeMetrics records the allocation and GC cost per op between two
// snapshots.
func runtimeMetrics(o *outcome, before, after memCounters, ops int) {
	if ops < 1 {
		ops = 1
	}
	o.values["runtime.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1e6 / float64(ops)
	o.values["runtime.gc_cycles_per_op"] = float64(after.gcCycles-before.gcCycles) / float64(ops)
	o.values["runtime.gc_pause_us_per_op"] = float64(after.pauseNS-before.pauseNS) / 1e3 / float64(ops)
}

// memSampler samples, every 20 ms until finished, the memory the Go
// runtime holds from the operating system: everything it has mapped minus
// the heap pages it has released. Its median over the timed phase is a
// steadier footprint than the peak resident set, which moves with where
// garbage collections happen to fall.
type memSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			s.mb = append(s.mb, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/1e6)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample in MB.
func (s *memSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.mb)
}

// overheadPct turns the latency ratios of traced to untraced ops, each pair
// run back to back, into the tracing overhead in percent. Pairing keeps
// drift in the machine's speed out of the estimate.
func overheadPct(ratios []float64) float64 {
	return 100 * (median(ratios) - 1)
}
