package engine

import (
	"sync"
	"time"
)

// meterBuckets is the ring size of per-second drain counters; it must
// exceed meterWindow so a full window is always retained.
const meterBuckets = 16

// meterWindow is how many trailing seconds the drain rate averages
// over.
const meterWindow = 10

// drainMeter measures the queue's drain rate: workers record each
// dequeue into per-second ring buckets, and rate averages the trailing
// window. The engine computes Retry-After for refused submissions from
// it — depth over drain rate is the honest "come back in" estimate.
// Plain mutex, nanosecond critical sections; not a policed shard type.
type drainMeter struct {
	mu      sync.Mutex
	seconds [meterBuckets]int64
	counts  [meterBuckets]int64
}

// record counts one dequeued operation against the current second.
func (m *drainMeter) record(now time.Time) {
	sec := now.Unix()
	i := sec % meterBuckets
	m.mu.Lock()
	if m.seconds[i] != sec {
		m.seconds[i] = sec
		m.counts[i] = 0
	}
	m.counts[i]++
	m.mu.Unlock()
}

// rate returns the average drained operations per second over the
// trailing window, zero when nothing drained.
func (m *drainMeter) rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	m.mu.Lock()
	for i := range m.seconds {
		if sec-m.seconds[i] < meterWindow {
			total += m.counts[i]
		}
	}
	m.mu.Unlock()
	return float64(total) / meterWindow
}
