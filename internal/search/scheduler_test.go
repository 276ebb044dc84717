package search

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

type stepFn = func() ([]Job, bool, error)

// stepJob is a configurable test job, named by a string.
type stepJob struct {
	node
	key   string
	steps []stepFn
	calls int
}

func (j *stepJob) String() string { return j.key }

func (j *stepJob) Step(w *Worker) (bool, error) {
	j.calls++
	if j.calls > len(j.steps) {
		return true, nil
	}
	children, done, err := j.steps[j.calls-1]()
	for _, c := range children {
		w.Spawn(c)
	}
	return done, err
}

// jobTable deduplicates string-named test jobs the way the search's goal
// tables deduplicate group-level goals: the first job registered under a
// name is the one every later registration of that name waits for. Test
// jobs count as Opt jobs in the scheduler's telemetry.
type jobTable map[string]*stepJob

func (tb jobTable) goal(j *stepJob) Job {
	if first, ok := tb[j.key]; ok {
		return first
	}
	j.kind = JobOpt
	tb[j.key] = j
	return j
}

func leaf(key string, hit *int) *stepJob {
	return &stepJob{key: key, steps: []stepFn{
		func() ([]Job, bool, error) {
			*hit++
			return nil, true, nil
		},
	}}
}

func TestSchedulerRunsDependencyTree(t *testing.T) {
	tb := jobTable{}
	var hits int
	children := []Job{tb.goal(leaf("a", &hits)), tb.goal(leaf("b", &hits)), tb.goal(leaf("c", &hits))}
	var resumed int
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]Job, bool, error) { return children, false, nil },
		func() ([]Job, bool, error) {
			// All children must have completed before the parent resumes.
			if hits != 3 {
				return nil, false, errors.New("parent resumed early")
			}
			resumed++
			return nil, true, nil
		},
	}}
	s := &Scheduler{}
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	if hits != 3 || resumed != 1 {
		t.Errorf("hits=%d resumed=%d", hits, resumed)
	}
}

func TestSchedulerDeduplicatesByKey(t *testing.T) {
	// Two parents wait on the same child goal: the child must run once and
	// both parents must resume — the paper's group job queue (§4.2).
	tb := jobTable{}
	var childRuns int
	mkParent := func(name string) Job {
		return tb.goal(&stepJob{key: name, steps: []stepFn{
			func() ([]Job, bool, error) {
				return []Job{tb.goal(leaf("shared-goal", &childRuns))}, false, nil
			},
			func() ([]Job, bool, error) { return nil, true, nil },
		}})
	}
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]Job, bool, error) { return []Job{mkParent("p1"), mkParent("p2")}, false, nil },
		func() ([]Job, bool, error) { return nil, true, nil },
	}}
	s := &Scheduler{}
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	if childRuns != 1 {
		t.Errorf("shared goal ran %d times, want 1", childRuns)
	}
}

func TestSchedulerPropagatesErrors(t *testing.T) {
	tb := jobTable{}
	boom := errors.New("boom")
	bad := &stepJob{key: "bad", steps: []stepFn{
		func() ([]Job, bool, error) { return nil, false, boom },
	}}
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]Job, bool, error) { return []Job{tb.goal(bad)}, false, nil },
	}}
	s := &Scheduler{}
	if err := s.Run(tb.goal(root)); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	// An endless chain of jobs must be cut off by the deadline.
	tb := jobTable{}
	var mk func(i int64) Job
	mk = func(i int64) Job {
		return tb.goal(&stepJob{key: fmt.Sprintf("j%d", i), steps: []stepFn{
			func() ([]Job, bool, error) {
				time.Sleep(200 * time.Microsecond)
				return []Job{mk(i + 1)}, false, nil
			},
			func() ([]Job, bool, error) { return nil, true, nil },
		}})
	}
	s := &Scheduler{}
	s.p.Deadline = time.Now().Add(30 * time.Millisecond)
	err := s.Run(mk(0))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
}

func TestSchedulerPastDeadlineRunsNothing(t *testing.T) {
	// A deadline already past when Run starts sets the flag before the first
	// step: not even the root runs.
	tb := jobTable{}
	var hits int
	s := &Scheduler{}
	s.p.Deadline = time.Now().Add(-time.Second)
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
	tb := jobTable{}
	var hits int
	s := &Scheduler{}
	s.p.Deadline = time.Now().Add(20 * time.Millisecond)
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
	tb := jobTable{}
	var mk func(i int64) Job
	mk = func(i int64) Job {
		return tb.goal(&stepJob{key: fmt.Sprintf("s%d", i), steps: []stepFn{
			func() ([]Job, bool, error) {
				return []Job{mk(i + 1)}, false, nil
			},
			func() ([]Job, bool, error) { return nil, true, nil },
		}})
	}
	s := &Scheduler{}
	s.p.StepLimit = 25
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
	tb := jobTable{}
	var hits int
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]Job, bool, error) {
			return []Job{tb.goal(leaf("a", &hits)), tb.goal(leaf("b", &hits)), tb.goal(leaf("c", &hits))}, false, nil
		},
		func() ([]Job, bool, error) { return nil, true, nil },
	}}
	s := &Scheduler{}
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
	if st.Wall <= 0 {
		t.Errorf("Wall=%v, want > 0", st.Wall)
	}
	if u := st.Utilization(); u < 0 || u > 1 {
		t.Errorf("Utilization=%v out of [0,1]", u)
	}
	if st.Busy <= 0 || st.Busy > st.Wall {
		t.Errorf("Busy=%v, want in (0, Wall = %v]", st.Busy, st.Wall)
	}

	var merged Stats
	merged.Merge(st)
	merged.Merge(st)
	if merged.TotalSteps() != 10 || merged.PeakQueue != st.PeakQueue || merged.Busy != 2*st.Busy || merged.Wall != 2*st.Wall {
		t.Errorf("Merge: total=%d peak=%d busy=%v wall=%v", merged.TotalSteps(), merged.PeakQueue, merged.Busy, merged.Wall)
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
	tb := jobTable{}
	var done int
	var mk func(i int) Job
	mk = func(i int) Job {
		return tb.goal(&stepJob{key: fmt.Sprintf("d%d", i), steps: []stepFn{
			func() ([]Job, bool, error) {
				if i == depth {
					done++
					return nil, true, nil
				}
				return []Job{mk(i + 1)}, false, nil
			},
			func() ([]Job, bool, error) { return nil, true, nil },
		}})
	}
	s := &Scheduler{}
	if err := s.Run(mk(0)); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Error("chain did not complete")
	}
}

func TestSchedulerManyLeaves(t *testing.T) {
	// One parent waits on 500 children: it resumes exactly once, after the
	// last of them.
	tb := jobTable{}
	var hits int
	var children []Job
	for i := 0; i < 500; i++ {
		children = append(children, tb.goal(leaf(fmt.Sprintf("leaf%d", i), &hits)))
	}
	resumeCount := 0
	root := &stepJob{key: "root", steps: []stepFn{
		func() ([]Job, bool, error) { return children, false, nil },
		func() ([]Job, bool, error) {
			resumeCount++
			return nil, true, nil
		},
	}}
	s := &Scheduler{}
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

func TestSchedulerSharedGoalsRunOnce(t *testing.T) {
	// Many parents per level all depend on the same small set of shared
	// goals: each goal runs once, and every parent waits on it as one of
	// its many waiters.
	const (
		levels  = 6
		fanout  = 20
		sharing = 4 // distinct goals per level that all parents contend on
	)
	tb := jobTable{}
	var runs int
	var mk func(level, i int) Job
	mk = func(level, i int) Job {
		key := fmt.Sprintf("L%d/g%d", level, i%sharing)
		return tb.goal(&stepJob{key: key, steps: []stepFn{
			func() ([]Job, bool, error) {
				runs++
				if level == levels {
					return nil, true, nil
				}
				var deps []Job
				for j := 0; j < fanout; j++ {
					deps = append(deps, mk(level+1, i*fanout+j))
				}
				return deps, false, nil
			},
			func() ([]Job, bool, error) { return nil, true, nil },
		}})
	}
	root := &stepJob{key: "stress-root", steps: []stepFn{
		func() ([]Job, bool, error) {
			var deps []Job
			for i := 0; i < fanout; i++ {
				deps = append(deps, mk(1, i))
			}
			return deps, false, nil
		},
		func() ([]Job, bool, error) { return nil, true, nil },
	}}
	s := &Scheduler{}
	if err := s.Run(tb.goal(root)); err != nil {
		t.Fatal(err)
	}
	// Each of the `sharing` keys per level must run exactly once (the root
	// itself is not counted; it never increments runs).
	if want := levels * sharing; runs != want {
		t.Errorf("distinct goals ran %d times, want %d (dedup broke)", runs, want)
	}
}
