// Package fault is the reproduction of GPOS's fault-simulation framework
// (paper §6.1): named fault points compiled into the optimizer's layers that
// can be armed at run time to raise a structured exception, panic, or inject
// latency. The paper's testing infrastructure relies on exactly this
// mechanism to "automate testing the unexpected" — exercising the error
// paths, the AMPERe capture machinery and the fallback logic without waiting
// for real failures.
//
// A fault point is a registered Point (see points.go) passed to Inject at an
// instrumented site:
//
//	if err := fault.Inject(fault.PointMemoInsert); err != nil {
//	    return nil, err
//	}
//
// When nothing is armed, Inject is a single atomic load. Arming is done with
// Specs — programmatically through core.Config.Faults, or from the
// ORCA_FAULTS environment spec parsed by cmd/orca (see ParseSpecs for the
// grammar). Triggers are deterministic so failures are reproducible: an
// every-Nth-hit counter and a seeded pseudo-random probability.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orca/internal/gpos"
)

// Action is what an armed fault does when its trigger fires.
type Action uint8

// Actions.
const (
	// ActError makes Inject return a *gpos.Exception whose component is
	// derived from the fault point's name prefix.
	ActError Action = iota
	// ActPanic makes Inject panic, exercising the panic-containment and
	// AMPERe capture paths.
	ActPanic
	// ActDelay makes Inject sleep for Spec.Delay, simulating a slow
	// dependency (e.g. a hung metadata provider).
	ActDelay
)

// String names the action as it appears in spec strings.
func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	default:
		return "unknown"
	}
}

// CodeInjected is the gpos.Exception code of every injected error.
const CodeInjected = "FaultInjected"

// Spec arms one fault point. The zero trigger fields mean "fire on every
// hit, forever"; Every, Limit and Prob restrict that deterministically.
type Spec struct {
	// Point is the registered fault point.
	Point Point
	// Action selects error, panic or delay.
	Action Action
	// Delay is the injected latency for ActDelay.
	Delay time.Duration
	// Every fires the fault only on every Nth hit of the point
	// (0 or 1 = every hit).
	Every int
	// Limit caps the number of fires (0 = unlimited). Every=1, Limit=1
	// gives the common "fail exactly once, then recover" schedule.
	Limit int
	// Prob fires the fault on each eligible hit with this probability,
	// drawn from a generator seeded with Seed (0 = unconditional).
	Prob float64
	// Seed seeds the probability generator, making probabilistic schedules
	// reproducible.
	Seed int64
}

// armedFault is a Spec plus its mutable trigger state.
type armedFault struct {
	spec  Spec
	hits  int64
	fires int64
	rng   *rand.Rand
}

// Registry holds the armed faults. The optimizer uses one process-global
// Default registry, mirroring GPOS's process-wide fault simulation; separate
// registries exist only for tests of the framework itself.
type Registry struct {
	mu     sync.Mutex
	armed  map[Point][]*armedFault
	nArmed atomic.Int32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{armed: make(map[Point][]*armedFault)}
}

// Default is the process-global registry used by Inject.
var Default = NewRegistry()

// Arm validates and arms the given specs, returning a function that disarms
// exactly those specs (other armed faults are untouched). Unknown fault
// points are rejected so a typo in a schedule cannot silently arm nothing.
func (r *Registry) Arm(specs []Spec) (disarm func(), err error) {
	if len(specs) == 0 {
		return func() {}, nil
	}
	added := make([]*armedFault, 0, len(specs))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range specs {
		if _, ok := registered[s.Point.name]; !ok {
			for _, a := range added {
				r.removeLocked(a)
			}
			return nil, fmt.Errorf("fault: unknown fault point %q", s.Point)
		}
		a := &armedFault{spec: s}
		if s.Prob > 0 {
			a.rng = rand.New(rand.NewSource(s.Seed))
		}
		r.armed[s.Point] = append(r.armed[s.Point], a)
		r.nArmed.Add(1)
		added = append(added, a)
	}
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, a := range added {
			r.removeLocked(a)
		}
	}, nil
}

func (r *Registry) removeLocked(target *armedFault) {
	list := r.armed[target.spec.Point]
	for i, a := range list {
		if a == target {
			r.armed[target.spec.Point] = append(list[:i], list[i+1:]...)
			r.nArmed.Add(-1)
			return
		}
	}
}

// Reset disarms everything.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, list := range r.armed {
		r.nArmed.Add(-int32(len(list)))
		delete(r.armed, p)
	}
}

// Enabled reports whether any fault is armed; the Inject fast path.
func (r *Registry) Enabled() bool { return r.nArmed.Load() != 0 }

// Inject evaluates the fault point: it returns nil when the point is not
// armed or its trigger does not fire, returns a *gpos.Exception for ActError,
// panics for ActPanic, and sleeps then returns nil for ActDelay.
func (r *Registry) Inject(point Point) error {
	if r.nArmed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	var fired *Spec
	for _, a := range r.armed[point] {
		if a.eligible() {
			a.fires++
			fired = &a.spec
			break
		}
	}
	r.mu.Unlock()
	if fired == nil {
		return nil
	}
	switch fired.Action {
	case ActPanic:
		injectPanic(point.name)
	case ActDelay:
		time.Sleep(fired.Delay)
		return nil
	}
	return gpos.Raise(componentFor(point.name), CodeInjected, "injected fault at %s", point.name)
}

// eligible advances the trigger state and reports whether the fault fires on
// this hit. Called with the registry lock held.
func (a *armedFault) eligible() bool {
	a.hits++
	if a.spec.Limit > 0 && a.fires >= int64(a.spec.Limit) {
		return false
	}
	if n := int64(a.spec.Every); n > 1 && a.hits%n != 0 {
		return false
	}
	if a.spec.Prob > 0 && a.rng.Float64() >= a.spec.Prob {
		return false
	}
	return true
}

// injectPanic is a dedicated frame so the injected panic's stack trace shows
// the fault origin unambiguously in AMPERe dumps.
func injectPanic(point string) {
	panic(fmt.Sprintf("fault: injected panic at %s", point))
}

// componentFor maps a fault point's name prefix to the gpos component of
// injected exceptions.
func componentFor(point string) gpos.Component {
	prefix := point
	if i := strings.IndexByte(point, '/'); i >= 0 {
		prefix = point[:i]
	}
	switch prefix {
	case "md":
		return gpos.CompMD
	case "dxl":
		return gpos.CompDXL
	case "memo":
		return gpos.CompMemo
	case "stats":
		return gpos.CompStats
	case "cost":
		return gpos.CompCost
	case "search":
		return gpos.CompSearch
	case "serve":
		return gpos.CompServe
	default:
		return gpos.CompOptimizer
	}
}

// Inject evaluates the fault point against the Default registry.
func Inject(point Point) error { return Default.Inject(point) }

// Arm arms specs in the Default registry.
func Arm(specs []Spec) (disarm func(), err error) { return Default.Arm(specs) }

// Reset disarms everything in the Default registry.
func Reset() { Default.Reset() }

// Enabled reports whether any fault is armed in the Default registry.
func Enabled() bool { return Default.Enabled() }

// RandomSchedule builds a reproducible randomized fault schedule for chaos
// testing: nFaults points drawn (with replacement) from the registered
// table, each armed with a seeded low-probability error or delay trigger and
// the occasional panic. The same seed always yields the same schedule.
func RandomSchedule(seed int64, nFaults int) []Spec {
	rng := rand.New(rand.NewSource(seed))
	points := Points()
	specs := make([]Spec, 0, nFaults)
	for i := 0; i < nFaults; i++ {
		s := Spec{
			Point: points[rng.Intn(len(points))],
			Prob:  0.02 + 0.18*rng.Float64(),
			Seed:  rng.Int63(),
		}
		switch roll := rng.Float64(); {
		case roll < 0.6:
			s.Action = ActError
		case roll < 0.9:
			s.Action = ActDelay
			s.Delay = time.Duration(rng.Intn(2000)) * time.Microsecond
		default:
			s.Action = ActPanic
		}
		specs = append(specs, s)
	}
	return specs
}
