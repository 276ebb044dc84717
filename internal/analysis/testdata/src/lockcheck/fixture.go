// Package lockcheckfix seeds violations and legal near-misses for the
// per-function rules of the locks analyzer. Copies of lock-holding values are
// go vet's copylocks check and are not seeded here.
package lockcheckfix

import "sync"

type queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (q *queue) badWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		q.cond.Wait() // want `sync\.Cond\.Wait must be wrapped in a for loop`
	}
}

func (q *queue) okWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
}

func (q *queue) badNoUnlock() {
	q.mu.Lock() // want `q\.mu\.Lock without a matching q\.mu\.Unlock in the same function`
	q.n++
}

func badNoRUnlock(rw *sync.RWMutex, n *int) {
	rw.RLock() // want `rw\.RLock without a matching rw\.RUnlock in the same function`
	(*n)++
}

func (q *queue) badReturnBetween(x bool) {
	q.mu.Lock()
	if x {
		return // want `return path may leave q\.mu held`
	}
	q.mu.Unlock()
}

func (q *queue) okDeferred(x bool) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if x {
		return 0
	}
	return q.n
}

func (q *queue) okDeferredClosure() {
	q.mu.Lock()
	defer func() {
		q.n--
		q.mu.Unlock()
	}()
	q.n++
}

func (q *queue) okManualOnEveryPath(x bool) {
	q.mu.Lock()
	if x {
		q.mu.Unlock()
		return
	}
	q.n++
	q.mu.Unlock()
}

// flush write-locks its receiver's mutex; calling it with that mutex held
// self-deadlocks.
func (q *queue) flush() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.n = 0
}

func (q *queue) badRelock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.flush() // want `call to flush while q\.mu is held`
}

func (q *queue) okRelockAfterUnlock() {
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
	q.flush()
}

// A goroutine's body is a function of its own: its lock must pair inside it.
func (q *queue) badGoroutineLock() {
	go func() {
		q.mu.Lock() // want `q\.mu\.Lock without a matching q\.mu\.Unlock in the same function`
		q.n++
	}()
}
