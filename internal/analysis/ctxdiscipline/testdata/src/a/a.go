// Package a exercises every ctxdiscipline diagnostic plus the clean
// shapes that must not be flagged.
package a

import (
	"context"
	"sync"
	"time"
)

// Root creation in library code is forbidden.
func detachedRoot() context.Context {
	return context.Background() // want `context\.Background outside cmd/ and tests`
}

func todoRoot() context.Context {
	return context.TODO() // want `context\.TODO outside cmd/ and tests`
}

// Threading the caller's context is the sanctioned shape.
func threaded(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// A suppressed root with a justification stays silent.
func suppressedRoot() context.Context {
	//lint:allow opdaemon/ctxdiscipline this is the process root for the fixture
	return context.Background()
}

// Drain blocks on a bare receive without taking a context.
func Drain(ch chan int) int { // want `exported Drain blocks \(channel receive\) but does not take a context\.Context`
	return <-ch
}

// Send blocks on a bare send without taking a context.
func Send(ch chan int) { // want `exported Send blocks \(channel send\)`
	ch <- 1
}

// WaitAll blocks on a WaitGroup without taking a context.
func WaitAll(wg *sync.WaitGroup) { // want `exported WaitAll blocks \(sync\.WaitGroup\.Wait\)`
	wg.Wait()
}

// Park blocks on a condition variable without taking a context.
func Park(c *sync.Cond) { // want `exported Park blocks \(sync\.Cond\.Wait\)`
	c.L.Lock()
	c.Wait()
	c.L.Unlock()
}

// Nap blocks in time.Sleep without taking a context.
func Nap() { // want `exported Nap blocks \(time\.Sleep\)`
	time.Sleep(time.Second)
}

// Gather blocks in a select with no default.
func Gather(a, b chan int) int { // want `exported Gather blocks \(select with no default\)`
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Consume blocks ranging over a channel.
func Consume(ch chan int) (n int) { // want `exported Consume blocks \(range over channel\)`
	for range ch {
		n++
	}
	return n
}

// DrainCtx is the compliant version: context first.
func DrainCtx(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// TrySend cannot block: the select has a default.
func TrySend(ch chan int) bool {
	select {
	case ch <- 1:
		return true
	default:
		return false
	}
}

// Spawn only blocks inside a goroutine body, which runs elsewhere.
func Spawn(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// drainUnexported blocks but is not exported; internal helpers may
// rely on their exported callers' contexts.
func drainUnexported(ch chan int) int {
	return <-ch
}

// Closer never blocks: close is not a send.
func Closer(ch chan int) {
	close(ch)
}
