// Package ampere implements AMPERe (paper §6.1): Automatic capture of
// Minimal Portable Executable Repros. A dump bundles everything needed to
// reproduce an optimization session away from the system that ran it — the
// input query, the optimizer configuration, the minimal set of metadata
// objects the session touched, and (when capture was triggered by an error)
// the exception's stack trace. Any Orca instance can replay a dump through a
// file-based metadata provider, and a dump with an expected plan doubles as
// a self-contained regression test case.
package ampere

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"orca/internal/core"
	"orca/internal/dxl"
	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
)

// Dump is one AMPERe repro.
type Dump struct {
	// Stack is the captured exception stack trace (empty for on-demand
	// dumps).
	Stack []string
	// ExcComp and ExcCode identify the captured exception (empty for
	// on-demand dumps). Replaying a failure dump must reproduce an exception
	// with the same component and code.
	ExcComp string
	ExcCode string
	// Config captures the optimizer configuration knobs that affect plans.
	Segments      int
	DisabledRules []string
	// Faults is the armed fault-injection schedule in ORCA_FAULTS syntax
	// (fault.FormatSpecs). Replay re-arms it so injected failures reproduce.
	Faults string
	// Metadata and Query are the serialized DXL payloads.
	MetadataDoc *dxl.Node
	QueryDoc    *dxl.Node
	// ExpectedPlan, when set, turns the dump into a test case: replaying it
	// must reproduce this exact plan fingerprint.
	ExpectedPlan string
}

// Capture builds a dump for a bound query. The metadata section is minimal:
// only the objects the session's accessor touched are harvested (plus, for
// an unoptimized query, the objects reachable from binding). If err is a
// gpos exception its stack trace is embedded, as in paper Listing 2. The
// metadata harvest runs under ctx so a cancelled capture stops promptly.
func Capture(ctx context.Context, q *core.Query, cfg core.Config, provider md.Provider, err error) (*Dump, error) {
	meta, herr := dxl.Harvest(ctx, q.Accessor, provider)
	if herr != nil {
		return nil, herr
	}
	d := &Dump{
		Segments:      cfg.Segments,
		DisabledRules: cfg.DisabledRules,
		Faults:        fault.FormatSpecs(cfg.Faults),
		MetadataDoc:   meta,
		QueryDoc:      dxl.SerializeQuery(q),
	}
	if ex := gpos.AsException(err); ex != nil {
		d.Stack = ex.Stack
		d.ExcComp = string(ex.Comp)
		d.ExcCode = ex.Code
	}
	return d, nil
}

// DumpCapture returns a core.Config.DumpCapture hook that captures a dump of
// the failed session under ctx and writes it into dir as
// ampere-<unixnano>.dxl. The hook returns the file's path, or "" when the
// capture or the write fails. Servers pass a context detached from the
// request's cancellation: dumps are typically written precisely because the
// deadline expired, and the harvest must still run.
func DumpCapture(ctx context.Context, dir string, provider md.Provider) func(*core.Query, core.Config, *gpos.Exception) string {
	return func(q *core.Query, cfg core.Config, failure *gpos.Exception) string {
		d, err := Capture(ctx, q, cfg, provider, failure)
		if err != nil {
			return ""
		}
		path := filepath.Join(dir, fmt.Sprintf("ampere-%d.dxl", time.Now().UnixNano()))
		if d.WriteFile(path) != nil {
			return ""
		}
		return path
	}
}

// Render serializes the dump as a DXL document.
func (d *Dump) Render() string {
	thread := dxl.El("Thread").Set("Id", "0")
	if len(d.Stack) > 0 || d.ExcCode != "" {
		st := dxl.El("Stacktrace")
		if d.ExcComp != "" {
			st.Set("Component", d.ExcComp)
		}
		if d.ExcCode != "" {
			st.Set("Code", d.ExcCode)
		}
		st.Text = strings.Join(d.Stack, "\n")
		thread.Add(st)
	}
	flags := dxl.El("TraceFlags").Set("Segments", strconv.Itoa(d.Segments))
	if len(d.DisabledRules) > 0 {
		flags.Set("DisabledRules", strings.Join(d.DisabledRules, ","))
	}
	if d.Faults != "" {
		flags.Set("Faults", d.Faults)
	}
	thread.Add(flags)
	thread.Add(d.MetadataDoc)
	// Unwrap the query message if it is wrapped.
	qn := d.QueryDoc
	if qn.Name == "DXLMessage" {
		qn = qn.Child("Query")
	}
	thread.Add(qn)
	if d.ExpectedPlan != "" {
		ep := dxl.El("ExpectedPlan")
		ep.Text = d.ExpectedPlan
		thread.Add(ep)
	}
	return dxl.El("DXLMessage").Add(thread).Render()
}

// WriteFile renders the dump to disk.
func (d *Dump) WriteFile(path string) error {
	return os.WriteFile(path, []byte(d.Render()), 0o644)
}

// Parse reads a dump document.
func Parse(doc string) (*Dump, error) {
	root, err := dxl.ParseXML(doc)
	if err != nil {
		return nil, err
	}
	thread := root.Child("Thread")
	if thread == nil {
		return nil, fmt.Errorf("ampere: dump has no Thread element")
	}
	d := &Dump{Segments: 1}
	if st := thread.Child("Stacktrace"); st != nil {
		if st.Text != "" {
			d.Stack = strings.Split(st.Text, "\n")
		}
		d.ExcComp = st.Attr("Component")
		d.ExcCode = st.Attr("Code")
	}
	if tf := thread.Child("TraceFlags"); tf != nil {
		if v, err := strconv.Atoi(tf.Attr("Segments")); err == nil && v > 0 {
			d.Segments = v
		}
		if dr := tf.Attr("DisabledRules"); dr != "" {
			d.DisabledRules = strings.Split(dr, ",")
		}
		d.Faults = tf.Attr("Faults")
	}
	d.MetadataDoc = thread.Child("Metadata")
	d.QueryDoc = thread.Child("Query")
	if d.MetadataDoc == nil || d.QueryDoc == nil {
		return nil, fmt.Errorf("ampere: dump missing Metadata or Query section")
	}
	if ep := thread.Child("ExpectedPlan"); ep != nil {
		d.ExpectedPlan = ep.Text
	}
	return d, nil
}

// Replay re-optimizes the dumped query against the dump's own metadata
// (paper Figure 10: "the optimizer loads the input query from the dump,
// creates a file-based MD Provider for the metadata, sets optimizer's
// configurations and then spawns the optimization threads").
func Replay(d *Dump) (*core.Result, *core.Query, error) {
	p := md.NewMemProvider()
	if err := dxl.ParseMetadata(d.MetadataDoc, p); err != nil {
		return nil, nil, err
	}
	cache := md.NewCache(&gpos.MemoryAccountant{})
	acc := md.NewAccessor(cache, p)
	f := md.NewColumnFactory()
	q, err := dxl.ParseQuery(d.QueryDoc, acc, f)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig(d.Segments)
	cfg.DisabledRules = d.DisabledRules
	if d.Faults != "" {
		specs, err := fault.ParseSpecs(d.Faults)
		if err != nil {
			return nil, nil, fmt.Errorf("ampere: bad fault schedule in dump: %w", err)
		}
		cfg.Faults = specs
		// A failure dump exists to reproduce the failure: the degradation
		// ladder must not paper over it during replay.
		cfg.DisableDegradation = true
	}
	res, err := core.Optimize(q, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, q, nil
}

// ReplayFile replays a dump from disk.
func ReplayFile(path string) (*core.Result, *core.Query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := Parse(string(data))
	if err != nil {
		return nil, nil, err
	}
	return Replay(d)
}

// CheckResult is the outcome of running a dump as a test case.
type CheckResult struct {
	Passed       bool
	GotPlan      string
	ExpectedPlan string
	Cost         float64
}

// Check replays a dump and compares the produced plan against the expected
// plan recorded in it — the dump-as-test-case workflow of §6.1: "any bug
// with an accompanying AMPERe dump ... can be automatically turned into a
// self-contained test case".
func Check(d *Dump) (*CheckResult, error) {
	res, _, err := Replay(d)
	if err != nil {
		return nil, err
	}
	got := dxl.PlanFingerprint(res.Plan)
	return &CheckResult{
		Passed:       d.ExpectedPlan == "" || strings.TrimSpace(got) == strings.TrimSpace(d.ExpectedPlan),
		GotPlan:      got,
		ExpectedPlan: d.ExpectedPlan,
		Cost:         res.Cost,
	}, nil
}
