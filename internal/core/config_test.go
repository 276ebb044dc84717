package core

import (
	"testing"
	"time"

	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/xform"
)

func TestMultiStageConfig(t *testing.T) {
	cfg := DefaultConfig(4)
	if got := cfg.effectiveStages(); len(got) != 1 || got[0].Name != "full" {
		t.Errorf("default stages = %v", got)
	}
	cfg.DisabledRules = []string{"JoinCommutativity"}
	cfg.Stages = []Stage{{Name: "s1", DisabledRules: []string{"Join2NLJoin"}}}
	d := cfg.disabled(&cfg.Stages[0])
	if !d["JoinCommutativity"] || !d["Join2NLJoin"] || d["Join2HashJoin"] {
		t.Errorf("disabled set = %v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := func(mut func(*Config)) Config {
		cfg := DefaultConfig(16)
		cfg.MemoryBudget = 1 << 20
		cfg.MaxGroups = 100
		cfg.MDLookupTimeout = time.Second
		cfg.MDRetry = md.RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond}
		cfg.DisabledRules = []string{"ExpandNAryJoinLeftDeep"}
		cfg.Stages = []Stage{{Name: "s", Timeout: time.Second, StepLimit: 100,
			DisabledRules: []string{"JoinAssociativity", "Join2NLJoin"}}}
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}

	cfg := valid(nil)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Zero values are all meaningful (unbounded / defaults), not errors.
	zero := Config{}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}

	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative segments", func(c *Config) { c.Segments = -1 }},
		{"negative memory budget", func(c *Config) { c.MemoryBudget = -1 }},
		{"negative group cap", func(c *Config) { c.MaxGroups = -5 }},
		{"negative md timeout", func(c *Config) { c.MDLookupTimeout = -time.Second }},
		{"negative retry attempts", func(c *Config) { c.MDRetry.MaxAttempts = -1 }},
		{"negative retry backoff", func(c *Config) { c.MDRetry.InitialBackoff = -time.Millisecond }},
		{"negative stage timeout", func(c *Config) { c.Stages[0].Timeout = -time.Second }},
		{"negative stage steps", func(c *Config) { c.Stages[0].StepLimit = -1 }},
		{"negative cost threshold", func(c *Config) { c.Stages[0].CostThreshold = -1 }},
	}
	for _, tc := range bad {
		cfg := valid(tc.mut)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a nonsensical config", tc.name)
		}
	}
}

// TestUnknownRuleNames checks the rule namespace is closed everywhere a name
// is configured: Validate and Optimize both refuse a DisabledRules entry,
// global or per-stage, that is not declared in defs/rules.opt — a deleted
// rule, a misspelling, a wrong case — with a typed exception, before any
// search or degradation rung runs.
func TestUnknownRuleNames(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"stale name", func(c *Config) { c.DisabledRules = []string{"JoinAssociativityMirror"} }},
		{"misspelt beside a real one", func(c *Config) { c.DisabledRules = []string{"JoinCommutativity", "JoinComutativity"} }},
		{"wrong case", func(c *Config) { c.DisabledRules = []string{"join2hashjoin"} }},
		{"empty name", func(c *Config) { c.DisabledRules = []string{""} }},
		{"per-stage", func(c *Config) {
			c.Stages = []Stage{{Name: "ok"}, {Name: "bad", DisabledRules: []string{"Join2MergeJoin"}}}
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(16)
		captured := false
		cfg.DumpCapture = func(*Query, Config, *gpos.Exception) string { captured = true; return "" }
		tc.mut(&cfg)
		if ex := gpos.AsException(cfg.Validate()); ex == nil || ex.Code != CodeUnknownRule {
			t.Errorf("%s: Validate = %v, want a %s exception", tc.name, cfg.Validate(), CodeUnknownRule)
		}
		q, _ := paperExample(t)
		res, err := Optimize(q, cfg)
		if ex := gpos.AsException(err); res != nil || ex == nil || ex.Code != CodeUnknownRule {
			t.Errorf("%s: Optimize = %v, %v, want a %s exception and no plan", tc.name, res, err, CodeUnknownRule)
		}
		if captured {
			t.Errorf("%s: a misconfiguration engaged the degradation ladder", tc.name)
		}
	}

	// Every declared rule name is accepted in both positions.
	cfg := DefaultConfig(16)
	cfg.DisabledRules = xform.RuleNames(xform.DefaultRules())
	cfg.Stages = []Stage{{Name: "all", DisabledRules: cfg.DisabledRules}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected the declared rule names: %v", err)
	}
}

func TestScaleBudgets(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MemoryBudget = 1000
	cfg.MaxGroups = 200
	cfg.MDLookupTimeout = time.Second
	cfg.Stages = []Stage{{Name: "s", Timeout: 2 * time.Second, StepLimit: 1000}}

	half := cfg.ScaleBudgets(0.5)
	if half.MemoryBudget != 500 || half.MaxGroups != 100 {
		t.Errorf("half budgets = %d bytes / %d groups, want 500/100", half.MemoryBudget, half.MaxGroups)
	}
	if half.MDLookupTimeout != 500*time.Millisecond {
		t.Errorf("half MD timeout = %v, want 500ms", half.MDLookupTimeout)
	}
	if half.Stages[0].Timeout != time.Second || half.Stages[0].StepLimit != 500 {
		t.Errorf("half stage = %+v", half.Stages[0])
	}
	// The original must be untouched (Stages is copied, not shared).
	if cfg.Stages[0].StepLimit != 1000 || cfg.MemoryBudget != 1000 {
		t.Errorf("ScaleBudgets mutated the baseline: %+v", cfg)
	}

	// Unbounded stays unbounded; scaling cannot invent a limit.
	free := DefaultConfig(16).ScaleBudgets(0.25)
	if free.MemoryBudget != 0 || free.MaxGroups != 0 || free.MDLookupTimeout != 0 {
		t.Errorf("unbounded budgets gained limits: %+v", free)
	}

	// A tiny fraction clamps to 1, never 0 ("unbounded") or negative.
	tiny := cfg.ScaleBudgets(0.0001)
	if tiny.MemoryBudget != 1 || tiny.MaxGroups != 1 {
		t.Errorf("tiny scale = %d bytes / %d groups, want 1/1", tiny.MemoryBudget, tiny.MaxGroups)
	}

	// Out-of-range fractions are identity.
	if got := cfg.ScaleBudgets(0); got.MemoryBudget != 1000 {
		t.Errorf("frac 0 scaled: %+v", got)
	}
	if got := cfg.ScaleBudgets(1.5); got.MemoryBudget != 1000 {
		t.Errorf("frac 1.5 scaled: %+v", got)
	}
}
