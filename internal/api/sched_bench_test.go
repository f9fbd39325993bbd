package api

// Fairness benchmark for the scheduler layer, run as part of
// `make bench`: one greedy client keeps the queue buried while a
// victim client submits through the full API path and waits for its
// operation to finish. The reported victim-p99-ms metric is the
// fairness headline: under FIFO dispatch the victim would wait behind
// the whole greedy backlog; under per-client round-robin its tail is
// bounded by its share. opbench's two clients are both well-behaved, so
// none of its workloads measures this.

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

func BenchmarkAPIFairnessGreedyMix(b *testing.B) {
	e := engine.New(engine.Config{Workers: 2, QueueDepth: 1 << 16})
	b.Cleanup(func() { e.Shutdown(context.Background()) })
	e.Register("spin", func(context.Context, *core.Operation) (any, error) {
		time.Sleep(50 * time.Microsecond)
		return nil, nil
	})
	s := New(e)

	// The greedy feeder keeps a deep backlog queued under one client
	// key for the whole measurement, topping it up as workers drain it.
	var stopped atomic.Bool
	done := make(chan struct{})
	b.Cleanup(func() { stopped.Store(true); <-done })
	go func() {
		defer close(done)
		body := `[` + strings.Repeat(`{"kind":"spin"},`, 255) + `{"kind":"spin"}]`
		for !stopped.Load() {
			if e.Stats().QueueClients["greedy"] > 512 {
				time.Sleep(time.Millisecond)
				continue
			}
			w := serve(s, "POST", "/v1/operations", body, withHeader("X-Client-Id", "greedy"))
			if w.Code != 202 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Let the backlog build before measuring.
	for e.Stats().QueueClients["greedy"] < 256 {
		time.Sleep(time.Millisecond)
	}

	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		begin := time.Now()
		w := serve(s, "POST", "/v1/operations", `{"kind":"spin"}`, withHeader("X-Client-Id", "victim"))
		if w.Code != 202 {
			b.Fatalf("victim submit returned %d: %s", w.Code, w.Body.String())
		}
		var reply struct {
			Result struct {
				ID string `json:"id"`
			} `json:"result"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			b.Fatal(err)
		}
		for {
			op, err := e.Get(reply.Result.ID)
			if err != nil {
				b.Fatal(err)
			}
			if op.Status.Terminal() {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		latencies = append(latencies, time.Since(begin))
	}
	b.StopTimer()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rank := int(0.99*float64(len(latencies))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(latencies) {
		rank = len(latencies) - 1
	}
	b.ReportMetric(float64(latencies[rank])/float64(time.Millisecond), "victim-p99-ms")
	b.ReportMetric(float64(latencies[len(latencies)/2])/float64(time.Millisecond), "victim-p50-ms")
}
