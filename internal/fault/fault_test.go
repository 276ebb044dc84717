package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"orca/internal/gpos"
)

func TestInjectDisarmedIsNil(t *testing.T) {
	r := NewRegistry()
	if r.Enabled() {
		t.Fatal("fresh registry reports Enabled")
	}
	for _, p := range Points() {
		if err := r.Inject(p); err != nil {
			t.Fatalf("disarmed Inject(%s) = %v", p, err)
		}
	}
}

func TestArmErrorAction(t *testing.T) {
	r := NewRegistry()
	disarm, err := r.Arm([]Spec{{Point: PointMemoInsert, Action: ActError}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enabled() {
		t.Fatal("armed registry not Enabled")
	}
	err = r.Inject(PointMemoInsert)
	ex := gpos.AsException(err)
	if ex == nil {
		t.Fatalf("want *gpos.Exception, got %v", err)
	}
	if ex.Comp != gpos.CompMemo || ex.Code != CodeInjected {
		t.Errorf("exception %s/%s, want %s/%s", ex.Comp, ex.Code, gpos.CompMemo, CodeInjected)
	}
	// Other points stay silent.
	if err := r.Inject(PointDXLParse); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
	disarm()
	if r.Enabled() {
		t.Error("registry still Enabled after disarm")
	}
	if err := r.Inject(PointMemoInsert); err != nil {
		t.Errorf("disarmed point fired: %v", err)
	}
}

func TestArmUnknownPoint(t *testing.T) {
	r := NewRegistry()
	unknown := Point{"no/such/point"}
	if _, err := r.Arm([]Spec{{Point: unknown, Action: ActError}}); err == nil {
		t.Fatal("Arm accepted unknown point")
	}
	// A failed Arm must leave nothing armed, including earlier specs in the
	// same batch.
	if _, err := r.Arm([]Spec{
		{Point: PointMemoInsert, Action: ActError},
		{Point: unknown, Action: ActError},
	}); err == nil {
		t.Fatal("Arm accepted batch with unknown point")
	}
	if r.Enabled() {
		t.Error("failed Arm left faults armed")
	}
}

func TestEveryNthTrigger(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Arm([]Spec{{Point: PointCostCompute, Action: ActError, Every: 3}}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 9; i++ {
		if r.Inject(PointCostCompute) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("every=3 fired on hits %v, want %v", fired, want)
	}
}

func TestLimitTrigger(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Arm([]Spec{{Point: PointCostCompute, Action: ActError, Limit: 2}}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 10; i++ {
		if r.Inject(PointCostCompute) != nil {
			n++
		}
	}
	if n != 2 {
		t.Errorf("limit=2 fired %d times", n)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func() []bool {
		r := NewRegistry()
		if _, err := r.Arm([]Spec{{Point: PointDXLParse, Action: ActError, Prob: 0.5, Seed: 7}}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Inject(PointDXLParse) != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedule diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("prob=0.5 fired %d/%d times — trigger not probabilistic", fires, len(a))
	}
}

func TestPanicAction(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Arm([]Spec{{Point: PointSearchJobExec, Action: ActPanic}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(fmt.Sprint(v), PointSearchJobExec.String()) {
			t.Errorf("panic value %v does not name the point", v)
		}
	}()
	_ = r.Inject(PointSearchJobExec)
}

func TestDelayAction(t *testing.T) {
	r := NewRegistry()
	const d = 20 * time.Millisecond
	if _, err := r.Arm([]Spec{{Point: PointMDProviderFetch, Action: ActDelay, Delay: d}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Inject(PointMDProviderFetch); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if got := time.Since(start); got < d {
		t.Errorf("delay slept %v, want >= %v", got, d)
	}
}

func TestConcurrentInject(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Arm([]Spec{{Point: PointMemoInsert, Action: ActError, Every: 2}}); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < perWorker; i++ {
				if r.Inject(PointMemoInsert) != nil {
					local++
				}
			}
			mu.Lock()
			fired += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if want := workers * perWorker / 2; fired != want {
		t.Errorf("every=2 under concurrency fired %d/%d, want %d", fired, workers*perWorker, want)
	}
}

func TestPointsTableConsistent(t *testing.T) {
	pts := Points()
	if len(pts) != len(registered) {
		t.Fatalf("Points() returned %d names for %d registered", len(pts), len(registered))
	}
	for _, p := range pts {
		if registered[p.name] == "" {
			t.Errorf("point %q has no description", p)
		}
	}
}

// TestRegisterDuplicatePanics: two points cannot share a name, so a copy-
// pasted declaration fails at package initialisation.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a duplicate point name")
		}
	}()
	register(PointMemoInsert.String(), "a second memo/insert")
}

func TestParseSpecsRoundTrip(t *testing.T) {
	in := "memo/insert:error:every=100, search/job/exec:panic:limit=1,md/provider/fetch:delay=5ms:prob=0.1:seed=42"
	specs, err := ParseSpecs(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	if s := specs[0]; s.Point != PointMemoInsert || s.Action != ActError || s.Every != 100 {
		t.Errorf("spec 0 = %+v", s)
	}
	if s := specs[1]; s.Point != PointSearchJobExec || s.Action != ActPanic || s.Limit != 1 {
		t.Errorf("spec 1 = %+v", s)
	}
	if s := specs[2]; s.Point != PointMDProviderFetch || s.Action != ActDelay ||
		s.Delay != 5*time.Millisecond || s.Prob != 0.1 || s.Seed != 42 {
		t.Errorf("spec 2 = %+v", s)
	}

	// Format → Parse is the identity on the parsed form.
	text := FormatSpecs(specs)
	again, err := ParseSpecs(text)
	if err != nil {
		t.Fatalf("re-parse %q: %v", text, err)
	}
	if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", specs) {
		t.Errorf("round trip changed specs:\n  %+v\n  %+v", specs, again)
	}
}

func TestParseSpecsErrors(t *testing.T) {
	for _, bad := range []string{
		"memo/insert",                // no action
		"no/such/point:error",        // unknown point
		"memo/insert:explode",        // unknown action
		"memo/insert:delay=nonsense", // bad duration
		"memo/insert:error:every",    // option without value
		"memo/insert:error:prob=1.5", // probability out of range
		"memo/insert:error:bogus=1",  // unknown option
		"memo/insert:error:every=x",  // non-numeric
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
	if specs, err := ParseSpecs("  "); err != nil || specs != nil {
		t.Errorf("blank spec: %v, %v", specs, err)
	}
}

func TestRandomScheduleReproducible(t *testing.T) {
	a := RandomSchedule(123, 6)
	b := RandomSchedule(123, 6)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("same seed gave different schedules")
	}
	c := RandomSchedule(124, 6)
	if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
		t.Error("different seeds gave identical schedules")
	}
	if len(a) != 6 {
		t.Errorf("schedule has %d specs", len(a))
	}
	for _, s := range a {
		if _, ok := registered[s.Point.name]; !ok {
			t.Errorf("schedule references unknown point %q", s.Point)
		}
	}
	// Schedules must arm cleanly.
	r := NewRegistry()
	disarm, err := r.Arm(a)
	if err != nil {
		t.Fatalf("arming random schedule: %v", err)
	}
	disarm()
}

func TestDefaultRegistryWrappers(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if Enabled() {
		t.Fatal("default registry armed at test start")
	}
	disarm, err := Arm([]Spec{{Point: PointCoreExtract, Action: ActError}})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if !Enabled() {
		t.Fatal("default registry not Enabled after Arm")
	}
	err = Inject(PointCoreExtract)
	var ex *gpos.Exception
	if !errors.As(err, &ex) {
		t.Fatalf("want exception, got %v", err)
	}
	if ex.Comp != gpos.CompOptimizer {
		t.Errorf("core/ prefix mapped to %s, want %s", ex.Comp, gpos.CompOptimizer)
	}
}
