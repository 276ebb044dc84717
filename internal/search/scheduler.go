// Package search implements Orca's search mechanism and job scheduler
// (paper §4.2): optimization is broken into small, re-entrant jobs —
// Exp(g), Exp(gexpr), Imp(g), Imp(gexpr), Opt(g, req), Opt(gexpr, req),
// Xform(gexpr, t) and Stats(g) — linked by child-parent dependencies. A
// parent job suspends while its children run and resumes when they all
// finish. Jobs are deduplicated by goal: when a job with some goal is already
// active, later jobs with the same goal attach as waiters instead of redoing
// the work, which is the paper's group job queue. A goal is a small
// comparable value (JobKey); the job object behind it is materialised only
// for a goal the registry has not seen, when it first runs.
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
	"orca/internal/xform"
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

// JobKey is a job's goal and its identity in the scheduler registry: a
// comparable value, hashed as a run of machine words with no formatting.
// Group is set on group-level goals (Exp(g), Imp(g), Opt(g, req), Stats(g))
// and Expr on expression-level ones; Req (Opt goals) is the Memo-interned
// request, so Equal requests built from different slices are one key; Rule
// (Xform goals) is the dense rule id.
type JobKey struct {
	Group *memo.Group
	Expr  *memo.GroupExpr
	Req   memo.ReqID
	Rule  int32
	Kind  JobKind
}

// String renders the goal for diagnostics, e.g. "opt(g3, {Singleton, <1>})".
// It resolves the request text through the Memo: cold paths only.
func (k JobKey) String() string {
	g, target := k.Group, ""
	if k.Expr != nil {
		g, target = k.Expr.Group(), ": "+k.Expr.String()
	}
	switch k.Kind {
	case JobOpt:
		if req, ok := g.Memo().Req(k.Req); ok {
			target += ", " + req.String()
		} else {
			target += fmt.Sprintf(", req#%d", k.Req)
		}
	case JobXform:
		target += ", " + xform.RuleNameFor(int(k.Rule))
	}
	return fmt.Sprintf("%s(g%d%s)", k.Kind, g.ID, target)
}

// Job is one re-entrant unit of optimization work. Step performs as much
// work as possible without blocking; to wait for other goals it spawns them
// on the Worker and returns not-done, and is re-entered once they have all
// completed (immediately, when it spawned none).
type Job interface {
	Step(w *Worker) (done bool, err error)
}

// Worker is the step loop's scratch, handed to Job.Step and to the
// scheduler's newJob. The buffers are reused across every step of the run,
// so describing children and costing an alternative allocate nothing in
// steady state; a job must not retain them past its Step. The slabs are the
// unused tails of the chunks job objects are carved from (see carve): the
// jobs live as long as the run, and die with it.
type Worker struct {
	children []JobKey
	derived  []props.Derived
	rows     []float64
	exprs    []*memo.GroupExpr

	jobs      []job
	optGroups []optGroupJob
	optExprs  []optGexprJob
	xforms    []xformJob
}

// Spawn makes the running job wait for the goal k.
func (w *Worker) Spawn(k JobKey) { w.children = append(w.children, k) }

type jobState struct {
	key JobKey
	job Job // materialised when the goal first runs
	// Waiters, in arrival order: most goals only ever have the first.
	parent  *jobState
	parents []*jobState
	pending int
	done    bool
}

// slabChunk is how many jobState nodes, or job objects of one type, one
// allocation holds.
const slabChunk = 64

// carve takes the next element from the unused tail of a chunk, starting a
// new chunk when the tail is empty.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, slabChunk)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

// Scheduler runs jobs one step at a time on the goroutine that calls Run.
type Scheduler struct {
	newJob    func(*Worker, JobKey) Job
	deadline  time.Time
	stepLimit int64
	quota     func() error
	expired   atomic.Bool // set by the deadline timer's goroutine

	registry map[JobKey]*jobState
	slab     []jobState // unused tail of the current jobState chunk
	queue    []*jobState
	steps    int64 // stats.Steps summed
	stats    Stats
}

// NewScheduler builds a scheduler. newJob materialises the job behind a goal
// when it first runs; it is called once per distinct goal.
func NewScheduler(newJob func(*Worker, JobKey) Job) *Scheduler {
	return &Scheduler{newJob: newJob, registry: make(map[JobKey]*jobState)}
}

// SetDeadline ends the run with ErrTimeout once the deadline passes
// (zero = none).
func (s *Scheduler) SetDeadline(d time.Time) { s.deadline = d }

// SetStepLimit ends the run with ErrTimeout once the given number of job
// steps have started (0 = none). Unlike a wall-clock deadline it is
// deterministic, which tests and reproducible stage budgets rely on.
func (s *Scheduler) SetStepLimit(n int64) { s.stepLimit = n }

// SetQuotaCheck installs a resource-guard poll evaluated before each job
// step (nil = none). A non-nil return ends the run with that error through
// the drain path, so best-so-far results survive. Conventionally the error
// wraps ErrBudget.
func (s *Scheduler) SetQuotaCheck(check func() error) { s.quota = check }

// Stats returns the run's telemetry. Call it after Run has returned.
func (s *Scheduler) Stats() Stats { return s.stats }

// Run executes the root goal (and its transitively spawned children) to
// completion. It returns the first error encountered, or ErrTimeout when the
// deadline or step limit cut the search short. On timeout the scheduler
// drains: the step in flight finishes (its results land in the Memo), only
// queued work is abandoned.
//
// The deadline is one timer armed here, not a clock read per step: it sets
// a flag the loop tests before each step, and is stopped before Run returns.
// A deadline already past sets the flag before the first step.
func (s *Scheduler) Run(root JobKey) error {
	start := time.Now()
	if !s.deadline.IsZero() {
		if d := s.deadline.Sub(start); d > 0 {
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

// enqueue registers a goal (deduplicating by key) and attaches the parent as
// a waiter. It returns whether the parent must wait.
func (s *Scheduler) enqueue(k JobKey, parent *jobState) (wait bool) {
	st, ok := s.registry[k]
	if !ok {
		st = carve(&s.slab)
		st.key = k
		s.registry[k] = st
		s.push(st)
	}
	if st.done {
		return false
	}
	if st.parent == nil {
		st.parent = parent
	} else if parent != nil {
		st.parents = append(st.parents, parent)
	}
	return true
}

// push appends a job to the ready queue, tracking the peak depth.
func (s *Scheduler) push(st *jobState) {
	s.queue = append(s.queue, st)
	if len(s.queue) > s.stats.PeakQueue {
		s.stats.PeakQueue = len(s.queue)
	}
}

// loop is the step loop: LIFO pop, one job step, bookkeeping, until the
// queue drains or a limit, quota or error ends the run. It reads the clock
// only when it starts and stops (see Stats.Busy).
func (s *Scheduler) loop() error {
	var w Worker
	start := time.Now()
	defer func() { s.stats.Busy = time.Since(start) }()
	for len(s.queue) > 0 {
		if s.stepLimit > 0 && s.steps >= s.stepLimit || s.expired.Load() {
			return ErrTimeout
		}
		if s.quota != nil {
			if err := s.quota(); err != nil {
				return err
			}
		}
		// LIFO pop keeps the search depth-first, bounding live jobs.
		st := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.stats.Steps[st.key.Kind]++
		s.steps++

		w.children = w.children[:0]
		done, err := s.step(st, &w)
		if err != nil {
			return err
		}
		if done {
			s.complete(st)
			continue
		}
		for _, c := range w.children {
			if s.enqueue(c, st) {
				st.pending++
			}
		}
		if st.pending == 0 {
			// Children all finished already (or none): rerun.
			s.push(st)
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
func (s *Scheduler) step(st *jobState, w *Worker) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex := gpos.PanicException(gpos.CompSearch, r)
			ex.Msg = fmt.Sprintf("panic in %s job %q: %v", st.key.Kind, st.key, r)
			done, err = false, ex
		}
	}()
	if err := fault.Inject(fault.PointSearchJobExec); err != nil {
		return false, err
	}
	if st.job == nil {
		// First run of this goal: only now does it cost a job object.
		st.job = s.newJob(w, st.key)
	}
	return st.job.Step(w)
}

// complete marks a job done and tells its waiters.
func (s *Scheduler) complete(st *jobState) {
	st.done = true
	if st.parent != nil {
		s.resume(st.parent)
	}
	for _, p := range st.parents {
		s.resume(p)
	}
	st.parent, st.parents = nil, nil
}

// resume tells a waiting parent that one of its children completed; the
// last one to complete puts the parent back on the queue.
func (s *Scheduler) resume(p *jobState) {
	p.pending--
	if p.pending == 0 {
		s.push(p)
	}
}
