// Package search implements Orca's search mechanism and job scheduler
// (paper §4.2): optimization is broken into small, re-entrant jobs —
// Exp(g), Exp(gexpr), Imp(g), Imp(gexpr), Opt(g, req), Opt(gexpr, req),
// Xform(gexpr, t) and Stats(g) — linked by child-parent dependencies. A
// parent job suspends while its children run and resumes when they all
// finish. Group-level goals (Exp(g), Imp(g), Stats(g), Opt(g, req)) are
// deduplicated: each run keeps one job per goal in tables indexed by group,
// and a later spawn of a goal already in progress attaches as a waiter
// instead of redoing the work, which is the paper's group job queue.
// Expression-level goals need no lookup: the one parent step that spawns
// each of them builds its job, and that step runs once per run.
//
// One search runs on one goroutine, the caller of Scheduler.Run; concurrent
// optimizations each run their own search over their own Memo.
package search

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/memo"
	"orca/internal/props"
)

// ErrTimeout reports that the optimization stage exceeded its deadline or
// step limit. The scheduler drains rather than aborts: the limits are tested
// between job steps, so no step is cut in half, the Memo is left in a
// consistent state and the best plan found so far remains extractable.
var ErrTimeout = errors.New("search: optimization timed out")

// ErrBudget reports that a resource guard — the session memory budget or the
// Memo group limit, polled through the stage's quota check — cut the stage
// short. It drains exactly like ErrTimeout: the best plan found so far stays
// extractable.
var ErrBudget = errors.New("search: resource budget exhausted")

// Drained reports whether err is one of the graceful-abort sentinels
// (timeout or resource budget) after which the Memo still holds consistent
// best-so-far state, as opposed to a genuine failure.
func Drained(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrBudget)
}

// JobKind classifies scheduler jobs for telemetry (one per job family of
// paper §4.2, plus the statistics-derivation job).
type JobKind uint8

// Job kinds.
const (
	JobExp   JobKind = iota // Exp(g) / Exp(gexpr)
	JobImp                  // Imp(g) / Imp(gexpr)
	JobOpt                  // Opt(g, req) / Opt(gexpr, req)
	JobXform                // Xform(gexpr, t)
	JobStats                // Stats(g)
)

// NumJobKinds sizes per-kind arrays; keep in sync with the constants above.
const NumJobKinds = 5

// String names the kind for telemetry output.
func (k JobKind) String() string {
	if int(k) >= NumJobKinds {
		return "unknown"
	}
	return [NumJobKinds]string{"exp", "imp", "opt", "xform", "stats"}[k]
}

// Stats is one scheduler run's telemetry. Multi-stage sessions merge the
// per-stage runs into an aggregate (core.Result).
type Stats struct {
	// Steps counts executed job steps by kind.
	Steps [NumJobKinds]int64
	// PeakQueue is the maximum length the ready queue reached.
	PeakQueue int
	// Busy is the step loop's own duration: job steps plus the scheduler's
	// bookkeeping (summed across merged runs). The loop reads the clock when
	// it starts and when it stops, not per step.
	Busy time.Duration
	// Wall is the run's wall-clock time (summed across merged runs).
	Wall time.Duration
}

// TotalSteps returns the number of job steps across all kinds.
func (s Stats) TotalSteps() int64 {
	var n int64
	for _, c := range s.Steps {
		n += c
	}
	return n
}

// Utilization returns the share of the run's wall time spent in the step
// loop (see Busy), in [0, 1].
func (s Stats) Utilization() float64 {
	if s.Wall <= 0 {
		return 0
	}
	u := float64(s.Busy) / float64(s.Wall)
	if u > 1 {
		u = 1
	}
	return u
}

// Merge folds another run's telemetry into s.
func (s *Stats) Merge(o Stats) {
	for k := range s.Steps {
		s.Steps[k] += o.Steps[k]
	}
	if o.PeakQueue > s.PeakQueue {
		s.PeakQueue = o.PeakQueue
	}
	s.Busy += o.Busy
	s.Wall += o.Wall
}

// Job is one re-entrant unit of optimization work. Step performs as much
// work as possible without blocking; to wait for other jobs it spawns them
// on the Worker and returns not-done, and is re-entered once they have all
// completed (immediately, when it spawned none). String names the job's goal
// for diagnostics. Every job embeds a node, its scheduling state.
type Job interface {
	Step(w *Worker) (done bool, err error)
	String() string
	state() *node
}

// node is a job's scheduling state: its kind, its waiters and how many of
// its own children it still waits for.
type node struct {
	kind    JobKind
	queued  bool // spawned once: later spawns only wait for it
	done    bool
	pending int32
	waiter  Job   // the first waiter: most jobs only ever have one
	waiters []Job // later waiters, in arrival order
}

func (n *node) state() *node { return n }

// Worker is what a run's jobs share: the Optimizer, the goal tables, the
// pools jobs are taken from and the step loop's scratch buffers, reused
// across steps so describing children and costing an alternative allocate
// nothing in steady state; a job must not retain them past its Step.
// A group-level job lives as long as the run: the goal tables point at it.
// Nothing refers to a completed expression-level job, so it goes back to
// its pool (see release), which stays at the live search's depth.
type Worker struct {
	o        *Optimizer
	children []Job
	reqs     []props.Required
	derived  []props.Derived
	dids     []memo.DerivedID
	rows     []float64
	exprs    []*memo.GroupExpr
	groups   []groupGoals // indexed by GroupID, grown as groups appear

	jobs        pool[job]
	optGroups   pool[optGroupJob]
	optExprs    pool[optGexprJob]
	xforms      pool[xformJob]
	optOverflow pool[optGoals]
}

// Spawn makes the running job wait for j.
func (w *Worker) Spawn(j Job) { w.children = append(w.children, j) }

// pool hands out zeroed objects: released ones first, else the next of a
// chunk of 64.
type pool[T any] struct {
	chunk []T  // the current chunk's unused tail
	free  []*T // released objects
}

func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		o := p.free[n-1]
		p.free = p.free[:n-1]
		*o = *new(T)
		return o
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]T, 64)
	}
	o := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return o
}

// release returns a completed expression-level job to its pool.
func (w *Worker) release(j Job) {
	switch j := j.(type) {
	case *optGexprJob:
		w.optExprs.free = append(w.optExprs.free, j)
	case *xformJob:
		w.xforms.free = append(w.xforms.free, j)
	case *job:
		if j.Expr != nil {
			w.jobs.free = append(w.jobs.free, j)
		}
	}
}

// Scheduler runs one search, one job step at a time, on the goroutine that
// calls Run; its Worker's goal tables and pools serve that run only.
type Scheduler struct {
	w       Worker
	p       StageParams // the run's bounds
	expired atomic.Bool // set by the deadline timer's goroutine

	queue []Job
	steps int64 // stats.Steps summed
	stats Stats
}

// Stats returns the run's telemetry. Call it after Run has returned.
func (s *Scheduler) Stats() Stats { return s.stats }

// Run executes the root job (and its transitively spawned children) to
// completion. It returns the first error encountered, or ErrTimeout when the
// deadline or step limit cut the search short. On timeout the scheduler
// drains: the step in flight finishes (its results land in the Memo), only
// queued work is abandoned.
//
// The deadline is one timer armed here, not a clock read per step: it sets
// a flag the loop tests before each step, and is stopped before Run returns.
// A deadline already past sets the flag before the first step.
func (s *Scheduler) Run(root Job) error {
	start := time.Now()
	if !s.p.Deadline.IsZero() {
		if d := s.p.Deadline.Sub(start); d > 0 {
			t := time.AfterFunc(d, func() { s.expired.Store(true) })
			defer t.Stop()
		} else {
			s.expired.Store(true)
		}
	}
	s.enqueue(root, nil)
	err := s.loop()
	s.stats.Wall = time.Since(start)
	return err
}

// enqueue attaches the parent as a waiter of j, queueing j on its first
// spawn. It returns whether the parent must wait.
func (s *Scheduler) enqueue(j Job, parent Job) (wait bool) {
	n := j.state()
	if n.done {
		return false
	}
	if !n.queued {
		n.queued = true
		s.push(j)
	}
	if n.waiter == nil {
		n.waiter = parent
	} else if parent != nil {
		n.waiters = append(n.waiters, parent)
	}
	return true
}

// push appends a job to the ready queue, tracking the peak depth.
func (s *Scheduler) push(j Job) {
	s.queue = append(s.queue, j)
	if len(s.queue) > s.stats.PeakQueue {
		s.stats.PeakQueue = len(s.queue)
	}
}

// loop is the step loop: LIFO pop, one job step, bookkeeping, until the
// queue drains or a limit, quota or error ends the run. It reads the clock
// only when it starts and stops (see Stats.Busy).
func (s *Scheduler) loop() error {
	w := &s.w
	start := time.Now()
	defer func() { s.stats.Busy = time.Since(start) }()
	for len(s.queue) > 0 {
		if s.p.StepLimit > 0 && s.steps >= s.p.StepLimit || s.expired.Load() {
			return ErrTimeout
		}
		if s.p.Quota != nil {
			if err := s.p.Quota(); err != nil {
				return err
			}
		}
		// LIFO pop keeps the search depth-first, bounding live jobs.
		j := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		n := j.state()
		s.stats.Steps[n.kind]++
		s.steps++

		w.children = w.children[:0]
		done, err := s.step(j, w)
		if err != nil {
			return err
		}
		if done {
			s.complete(n)
			w.release(j)
			continue
		}
		for _, c := range w.children {
			if s.enqueue(c, j) {
				n.pending++
			}
		}
		if n.pending == 0 {
			// Children all finished already (or none): rerun.
			s.push(j)
		}
	}
	return nil
}

// step executes one job step with panic containment (paper §6.1's "fail the
// query, not the process"): a panic inside a job — in a transformation rule,
// statistics derivation, costing, or an injected fault — is converted into a
// gpos.Exception that preserves the original panic site's stack and is
// surfaced through the scheduler's normal error path, failing only this
// stage. The caller's goroutine survives; the degradation ladder in core and
// the AMPERe capture hook take it from there.
func (s *Scheduler) step(j Job, w *Worker) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex := gpos.PanicException(gpos.CompSearch, r)
			ex.Msg = fmt.Sprintf("panic in %s job %q: %v", j.state().kind, j, r)
			done, err = false, ex
		}
	}()
	if err := fault.Inject(fault.PointSearchJobExec); err != nil {
		return false, err
	}
	return j.Step(w)
}

// complete marks a job done and tells its waiters.
func (s *Scheduler) complete(n *node) {
	n.done = true
	if n.waiter != nil {
		s.resume(n.waiter)
	}
	for _, p := range n.waiters {
		s.resume(p)
	}
	n.waiter, n.waiters = nil, nil
}

// resume tells a waiting parent that one of its children completed; the
// last one to complete puts the parent back on the queue.
func (s *Scheduler) resume(p Job) {
	n := p.state()
	n.pending--
	if n.pending == 0 {
		s.push(p)
	}
}
