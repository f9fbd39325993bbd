package engine

import "time"

// meterBuckets is the ring size of per-second drain counters; it must
// exceed meterWindow so a full window is always retained.
const meterBuckets = 16

// meterWindow is how many trailing seconds the drain rate averages
// over.
const meterWindow = 10

// drainMeter counts events in per-second ring buckets, and rate
// averages the part of the trailing window that saw any: the
// scheduler's dispatches (depth over that rate is Retry-After) and the
// WAL's fsyncs. It has no lock; its owner records and reads it under
// the mutex that already guards the owner's state.
type drainMeter struct {
	seconds [meterBuckets]int64
	counts  [meterBuckets]int64
}

// record counts one event against the current second.
func (m *drainMeter) record(now time.Time) {
	sec := now.Unix()
	i := sec % meterBuckets
	if m.seconds[i] != sec {
		m.seconds[i] = sec
		m.counts[i] = 0
	}
	m.counts[i]++
}

// rate returns the average events per second over the span from the
// oldest second in the trailing window that saw one to now, so a burst
// after an idle spell is not diluted by the idle seconds; zero when
// nothing was recorded.
func (m *drainMeter) rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	span := int64(1)
	for i := range m.seconds {
		if age := sec - m.seconds[i]; age < meterWindow && m.counts[i] > 0 {
			total += m.counts[i]
			span = max(span, age+1)
		}
	}
	return float64(total) / float64(span)
}
