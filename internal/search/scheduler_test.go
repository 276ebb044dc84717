package search

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orca/internal/memo"
)

type stepFn = func() ([]JobKey, bool, error)

// stepJob is a configurable test job, named by a string.
type stepJob struct {
	key   string
	steps []stepFn
	calls int32
}

func (j *stepJob) Step(w *Worker) (bool, error) {
	n := atomic.AddInt32(&j.calls, 1)
	if int(n) > len(j.steps) {
		return true, nil
	}
	children, done, err := j.steps[n-1]()
	for _, c := range children {
		w.Spawn(c)
	}
	return done, err
}

// jobTable gives string-named test jobs goal identities: every distinct name
// is an Opt goal on a stand-in group of its own, and the first job registered
// under a name is the one the scheduler materialises for that goal.
type jobTable struct {
	mu   sync.Mutex
	keys map[string]JobKey
	jobs map[JobKey]*stepJob
}

func newJobTable() *jobTable {
	return &jobTable{keys: map[string]JobKey{}, jobs: map[JobKey]*stepJob{}}
}

func (tb *jobTable) goal(j *stepJob) JobKey {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	k, ok := tb.keys[j.key]
	if !ok {
		k = JobKey{Kind: JobOpt, Group: &memo.Group{ID: memo.GroupID(len(tb.keys))}}
		tb.keys[j.key] = k
		tb.jobs[k] = j
	}
	return k
}

func (tb *jobTable) scheduler(workers int) *Scheduler {
	return NewScheduler(workers, func(_ *Worker, k JobKey) Job {
		tb.mu.Lock()
		defer tb.mu.Unlock()
		return tb.jobs[k]
	})
}

func leaf(key string, hit *int32) *stepJob {
	return &stepJob{key: key, steps: []stepFn{
		func() ([]JobKey, bool, error) {
			atomic.AddInt32(hit, 1)
			return nil, true, nil
		},
	}}
}

func TestSchedulerRunsDependencyTree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tb := newJobTable()
		var hits int32
		children := []JobKey{tb.goal(leaf("a", &hits)), tb.goal(leaf("b", &hits)), tb.goal(leaf("c", &hits))}
		var resumed int32
		root := &stepJob{key: "root", steps: []stepFn{
			func() ([]JobKey, bool, error) { return children, false, nil },
			func() ([]JobKey, bool, error) {
				// All children must have completed before the parent resumes.
				if atomic.LoadInt32(&hits) != 3 {
					return nil, false, errors.New("parent resumed early")
				}
				atomic.AddInt32(&resumed, 1)
				return nil, true, nil
			},
		}}
		s := tb.scheduler(workers)
		if err := s.Run(tb.goal(root)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits != 3 || resumed != 1 {
			t.Errorf("workers=%d: hits=%d resumed=%d", workers, hits, resumed)
		}
	}
}

func TestSchedulerDeduplicatesByKey(t *testing.T) {
	// Two parents wait on the same child goal: the child must run once and
	// both parents must resume — the paper's group job queue (§4.2).
	tb := newJobTable()
	var childRuns int32
	mkParent := func(name string) JobKey {
		return tb.goal(&stepJob{key: name, steps: []stepFn{
			func() ([]JobKey, bool, error) {
				return []JobKey{tb.goal(leaf("shared-goal", &childRuns))}, false, nil
			},
			func() ([]JobKey, bool, error) { return nil, true, nil },
		}})
	}
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]JobKey, bool, error) { return []JobKey{mkParent("p1"), mkParent("p2")}, false, nil },
		func() ([]JobKey, bool, error) { return nil, true, nil },
	}}
	s := tb.scheduler(4)
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	if childRuns != 1 {
		t.Errorf("shared goal ran %d times, want 1", childRuns)
	}
}

func TestSchedulerPropagatesErrors(t *testing.T) {
	tb := newJobTable()
	boom := errors.New("boom")
	bad := &stepJob{key: "bad", steps: []stepFn{
		func() ([]JobKey, bool, error) { return nil, false, boom },
	}}
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]JobKey, bool, error) { return []JobKey{tb.goal(bad)}, false, nil },
	}}
	s := tb.scheduler(2)
	if err := s.Run(tb.goal(root)); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	// An endless chain of jobs must be cut off by the deadline.
	tb := newJobTable()
	var counter int64
	var mk func(i int64) JobKey
	mk = func(i int64) JobKey {
		return tb.goal(&stepJob{key: fmt.Sprintf("j%d", i), steps: []stepFn{
			func() ([]JobKey, bool, error) {
				atomic.AddInt64(&counter, 1)
				time.Sleep(200 * time.Microsecond)
				return []JobKey{mk(i + 1)}, false, nil
			},
			func() ([]JobKey, bool, error) { return nil, true, nil },
		}})
	}
	s := tb.scheduler(1)
	s.SetDeadline(time.Now().Add(30 * time.Millisecond))
	err := s.Run(mk(0))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
}

func TestSchedulerPastDeadlineRunsNothing(t *testing.T) {
	// A deadline already past when Run starts sets the flag before the first
	// step: not even the root runs.
	tb := newJobTable()
	var hits int32
	s := tb.scheduler(2)
	s.SetDeadline(time.Now().Add(-time.Second))
	if err := s.Run(tb.goal(leaf("root", &hits))); !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
	if n := s.Stats().TotalSteps(); n != 0 || hits != 0 {
		t.Errorf("ran %d steps (%d job bodies), want 0", n, hits)
	}
}

func TestSchedulerDeadlineTimerStopped(t *testing.T) {
	// A run that finishes before its deadline stops the timer on return: the
	// deadline passing afterwards must not touch the scheduler (the package's
	// leak check then also sees no timer goroutine).
	tb := newJobTable()
	var hits int32
	s := tb.scheduler(1)
	s.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if err := s.Run(tb.goal(leaf("quick", &hits))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if s.expired.Load() {
		t.Error("the deadline timer fired after Run returned")
	}
}

func TestSchedulerStepLimit(t *testing.T) {
	// The step budget is the deterministic analogue of the deadline: an
	// endless chain must be cut off with ErrTimeout after exactly the budget.
	tb := newJobTable()
	var counter int64
	var mk func(i int64) JobKey
	mk = func(i int64) JobKey {
		return tb.goal(&stepJob{key: fmt.Sprintf("s%d", i), steps: []stepFn{
			func() ([]JobKey, bool, error) {
				atomic.AddInt64(&counter, 1)
				return []JobKey{mk(i + 1)}, false, nil
			},
			func() ([]JobKey, bool, error) { return nil, true, nil },
		}})
	}
	s := tb.scheduler(1)
	s.SetStepLimit(25)
	err := s.Run(mk(0))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
	if got := s.Stats().TotalSteps(); got != 25 {
		t.Errorf("executed %d steps, want exactly 25", got)
	}
}

func TestSchedulerStats(t *testing.T) {
	// A root fanning out to 3 leaves, all JobOpt: 3 leaf steps + 2 root steps.
	tb := newJobTable()
	var hits int32
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]JobKey, bool, error) {
			return []JobKey{tb.goal(leaf("a", &hits)), tb.goal(leaf("b", &hits)), tb.goal(leaf("c", &hits))}, false, nil
		},
		func() ([]JobKey, bool, error) { return nil, true, nil },
	}}
	s := tb.scheduler(2)
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Steps[JobOpt] != 5 || st.TotalSteps() != 5 {
		t.Errorf("Steps[JobOpt]=%d total=%d, want 5", st.Steps[JobOpt], st.TotalSteps())
	}
	if st.PeakQueue < 2 {
		t.Errorf("PeakQueue=%d, want >= 2 (three leaves queued while one runs)", st.PeakQueue)
	}
	if st.Workers != 2 {
		t.Errorf("Workers=%d, want 2", st.Workers)
	}
	if st.Wall <= 0 {
		t.Errorf("Wall=%v, want > 0", st.Wall)
	}
	if u := st.Utilization(); u < 0 || u > 1 {
		t.Errorf("Utilization=%v out of [0,1]", u)
	}
	if st.Busy <= 0 || st.Busy > st.Wall*time.Duration(st.Workers) {
		t.Errorf("Busy=%v, want in (0, Wall x Workers = %v]", st.Busy, st.Wall*time.Duration(st.Workers))
	}

	var merged Stats
	merged.Merge(st)
	merged.Merge(st)
	if merged.TotalSteps() != 10 || merged.Workers != 2 || merged.PeakQueue != st.PeakQueue {
		t.Errorf("Merge: total=%d workers=%d peak=%d", merged.TotalSteps(), merged.Workers, merged.PeakQueue)
	}
}

func TestJobKindString(t *testing.T) {
	want := []string{"exp", "imp", "opt", "xform", "stats"}
	for k := 0; k < NumJobKinds; k++ {
		if got := JobKind(k).String(); got != want[k] {
			t.Errorf("JobKind(%d) = %q, want %q", k, got, want[k])
		}
	}
	if got := JobKind(NumJobKinds).String(); got != "unknown" {
		t.Errorf("out-of-range kind = %q, want unknown", got)
	}
}

func TestSchedulerDeepRecursion(t *testing.T) {
	// A deep linear dependency chain exercises suspend/resume bookkeeping.
	const depth = 2000
	tb := newJobTable()
	var done int32
	var mk func(i int) JobKey
	mk = func(i int) JobKey {
		return tb.goal(&stepJob{key: fmt.Sprintf("d%d", i), steps: []stepFn{
			func() ([]JobKey, bool, error) {
				if i == depth {
					atomic.AddInt32(&done, 1)
					return nil, true, nil
				}
				return []JobKey{mk(i + 1)}, false, nil
			},
			func() ([]JobKey, bool, error) { return nil, true, nil },
		}})
	}
	s := tb.scheduler(2)
	if err := s.Run(mk(0)); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Error("chain did not complete")
	}
}

func TestSchedulerManyParallelLeaves(t *testing.T) {
	tb := newJobTable()
	var hits int32
	var children []JobKey
	for i := 0; i < 500; i++ {
		children = append(children, tb.goal(leaf(fmt.Sprintf("leaf%d", i), &hits)))
	}
	var mu sync.Mutex
	resumeCount := 0
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]JobKey, bool, error) { return children, false, nil },
		func() ([]JobKey, bool, error) {
			mu.Lock()
			resumeCount++
			mu.Unlock()
			return nil, true, nil
		},
	}}
	s := tb.scheduler(8)
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	if hits != 500 || resumeCount != 1 {
		t.Errorf("hits=%d resume=%d", hits, resumeCount)
	}
	if got := s.Stats().TotalSteps(); got != 502 {
		t.Errorf("TotalSteps = %d, want 502 (500 leaves + 2 root steps)", got)
	}
}

func TestSchedulerStressSharedGoals(t *testing.T) {
	// High-contention stress for the race gate: many parents per level all
	// depend on the same small set of shared goals, so workers constantly
	// collide on the dedup table and the suspend/resume condvar path.
	const (
		levels  = 6
		fanout  = 20
		sharing = 4 // distinct goals per level that all parents contend on
	)
	tb := newJobTable()
	var runs int32
	var mk func(level, i int) JobKey
	mk = func(level, i int) JobKey {
		key := fmt.Sprintf("L%d/g%d", level, i%sharing)
		return tb.goal(&stepJob{key: key, steps: []stepFn{
			func() ([]JobKey, bool, error) {
				atomic.AddInt32(&runs, 1)
				if level == levels {
					return nil, true, nil
				}
				var deps []JobKey
				for j := 0; j < fanout; j++ {
					deps = append(deps, mk(level+1, i*fanout+j))
				}
				return deps, false, nil
			},
			func() ([]JobKey, bool, error) { return nil, true, nil },
		}})
	}
	root := &stepJob{key: "stress-root", steps: []stepFn{
		func() ([]JobKey, bool, error) {
			var deps []JobKey
			for i := 0; i < fanout; i++ {
				deps = append(deps, mk(1, i))
			}
			return deps, false, nil
		},
		func() ([]JobKey, bool, error) { return nil, true, nil },
	}}
	s := tb.scheduler(16)
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	// Each of the `sharing` keys per level must run exactly once (the root
	// itself is not counted; it never increments runs).
	want := int32(levels * sharing)
	if runs != want {
		t.Errorf("distinct goals ran %d times, want %d (dedup broke under contention)", runs, want)
	}
}
