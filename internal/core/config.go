// Package core ties Orca's components into the optimization workflow of
// paper §4.1: normalization of the input query (including subquery
// decorrelation and n-ary join collapse), copy-in to the Memo, exploration,
// statistics derivation, implementation, property-driven optimization, and
// plan extraction — optionally across multiple optimization stages with rule
// subsets, timeouts and cost thresholds.
package core

import (
	"fmt"
	"time"

	"orca/internal/fault"
	"orca/internal/gpos"
	"orca/internal/md"
	"orca/internal/xform"
)

// Stage configures one optimization stage (paper §4.1 "Multi-Stage
// Optimization"): a complete optimization workflow using a subset of
// transformation rules with an optional timeout and cost threshold. A stage
// terminates when a plan under the threshold is found, the timeout fires, or
// its rule subset is exhausted.
type Stage struct {
	Name string
	// DisabledRules names transformation rules switched off in this stage.
	DisabledRules []string
	// Timeout bounds the stage's wall-clock time (0 = none). A stage cut
	// short keeps the best plan found so far rather than discarding its work.
	Timeout time.Duration
	// StepLimit bounds the stage's scheduler job steps (0 = none). It is the
	// deterministic analogue of Timeout: the same query and configuration
	// always stop at the same point in the search.
	StepLimit int64
	// CostThreshold stops the multi-stage loop early once a stage produces
	// a plan at or below this cost (0 = none).
	CostThreshold float64
}

// CodeUnknownRule is the exception code Validate and Optimize return for a
// DisabledRules entry that names no transformation rule.
const CodeUnknownRule = "UnknownRule"

// Config controls one optimization session.
type Config struct {
	// Segments is the number of segments in the target cluster.
	Segments int
	// DisabledRules switches off transformation rules globally, in addition
	// to any per-stage subsets.
	DisabledRules []string
	// Stages optionally splits optimization into stages; empty means one
	// unrestricted stage.
	Stages []Stage
	// Faults arms the named fault points of internal/fault for the duration
	// of the session (disarmed when Optimize returns). Specs are parsed from
	// the ORCA_FAULTS grammar by fault.ParseSpecs.
	Faults []fault.Spec
	// MemoryBudget caps the memory charged to the session's accountant, in
	// bytes (0 = unlimited). When exceeded, the running stage is cut short
	// through the scheduler's drain path: the best plan found so far is kept
	// and the stage is marked Aborted.
	MemoryBudget int64
	// MaxGroups caps the number of Memo groups (0 = unlimited), aborting the
	// stage through the same drain path as MemoryBudget.
	MaxGroups int
	// MDLookupTimeout bounds each metadata provider lookup. Zero means
	// UNBOUNDED: a hung provider can stall the session indefinitely, which
	// is acceptable for one-shot CLI runs against in-memory or file
	// providers but never for a serving tier — cmd/orcad therefore always
	// installs a non-zero default (and Config.Validate rejects negative
	// values). A lookup that exceeds the bound fails with a CompMD
	// LookupTimeout exception, classified transient by md.IsTransient so
	// the MDRetry policy (when armed) may try again.
	MDLookupTimeout time.Duration
	// MDRetry retries transient metadata provider lookups with exponential
	// backoff and jitter (see md.RetryPolicy). The zero policy disables
	// retry. Each attempt runs under MDLookupTimeout; the whole loop is
	// budgeted by the request context's deadline.
	MDRetry md.RetryPolicy
	// DisableDegradation turns off the degradation ladder: a failed
	// optimization returns its error instead of retrying on lower rungs.
	// The ladder's rungs use it internally to avoid recursing.
	DisableDegradation bool
	// DumpCapture, when set, is called once when the normal optimization pass
	// fails and the degradation ladder engages; it writes a diagnostic dump
	// (AMPERe) and returns its path, reported in Result.DumpPath. It is a
	// callback so core does not depend on the ampere package.
	DumpCapture func(q *Query, cfg Config, failure *gpos.Exception) string
}

// DefaultConfig returns a single-stage configuration for a cluster with the
// given segment count.
func DefaultConfig(segments int) Config {
	return Config{Segments: segments}
}

// Validate rejects nonsensical configurations with a clear error instead of
// letting them produce confusing behavior deep in the search (a negative
// memory budget reads as "already exhausted"). Zero values are meaningful
// everywhere — zero budget, groups cap, or timeout mean unbounded — so only
// genuinely impossible values fail. Hosts that accept external
// configuration (cmd/orca, cmd/orcad, the serving tier) call this before the
// first request rather than discovering a bad flag mid-storm.
func (c *Config) Validate() error {
	if c.Segments < 0 {
		return fmt.Errorf("core: config: Segments = %d; want >= 0 (0 means single-segment)", c.Segments)
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("core: config: MemoryBudget = %d bytes; want >= 0 (0 means unlimited)", c.MemoryBudget)
	}
	if c.MaxGroups < 0 {
		return fmt.Errorf("core: config: MaxGroups = %d; want >= 0 (0 means unlimited)", c.MaxGroups)
	}
	if c.MDLookupTimeout < 0 {
		return fmt.Errorf("core: config: MDLookupTimeout = %v; want >= 0 (0 means unbounded lookups)", c.MDLookupTimeout)
	}
	if c.MDRetry.MaxAttempts < 0 {
		return fmt.Errorf("core: config: MDRetry.MaxAttempts = %d; want >= 0 (0 or 1 disables retry)", c.MDRetry.MaxAttempts)
	}
	if c.MDRetry.InitialBackoff < 0 {
		return fmt.Errorf("core: config: MDRetry.InitialBackoff = %v; want >= 0", c.MDRetry.InitialBackoff)
	}
	for i, st := range c.Stages {
		if st.Timeout < 0 {
			return fmt.Errorf("core: config: stage %d (%s): Timeout = %v; want >= 0", i, st.Name, st.Timeout)
		}
		if st.StepLimit < 0 {
			return fmt.Errorf("core: config: stage %d (%s): StepLimit = %d; want >= 0", i, st.Name, st.StepLimit)
		}
		if st.CostThreshold < 0 {
			return fmt.Errorf("core: config: stage %d (%s): CostThreshold = %v; want >= 0", i, st.Name, st.CostThreshold)
		}
	}
	if ex := c.unknownRule(); ex != nil {
		return ex
	}
	return nil
}

// unknownRule reports the first DisabledRules entry, global or per-stage,
// that is not a rule declared in defs/rules.opt. Rule names are a closed
// set; a stale or misspelt name would otherwise disable nothing and the
// search would silently be wider than the caller configured. Validate and
// OptimizeContext both run it; it is free when both lists are empty.
func (c *Config) unknownRule() *gpos.Exception {
	for _, name := range c.DisabledRules {
		if _, ok := xform.RuleIDFor(name); !ok {
			return gpos.Raise(gpos.CompOptimizer, CodeUnknownRule,
				"config: DisabledRules names %q, which is not a transformation rule", name)
		}
	}
	for i, st := range c.Stages {
		for _, name := range st.DisabledRules {
			if _, ok := xform.RuleIDFor(name); !ok {
				return gpos.Raise(gpos.CompOptimizer, CodeUnknownRule,
					"config: stage %d (%s): DisabledRules names %q, which is not a transformation rule", i, st.Name, name)
			}
		}
	}
	return nil
}

// ScaleBudgets derives a per-request configuration from a server-wide
// baseline by scaling every resource budget by frac in (0, 1]: memory,
// group cap, per-lookup metadata timeout, and per-stage timeouts and step
// limits all shrink proportionally. The serving tier calls this with a
// load-derived fraction so that under admission pressure a hard query gets
// a smaller search (and degrades sooner) instead of monopolizing the
// process — a storm of hard queries then sheds work gracefully rather than
// toppling the server. Unbounded budgets (zero) stay unbounded: scaling
// cannot invent a limit the operator did not set. Fractions outside (0, 1)
// return the config unchanged.
func (c Config) ScaleBudgets(frac float64) Config {
	if frac <= 0 || frac >= 1 {
		return c
	}
	scaled := c
	if c.MemoryBudget > 0 {
		scaled.MemoryBudget = scaledInt64(c.MemoryBudget, frac)
	}
	if c.MaxGroups > 0 {
		scaled.MaxGroups = int(scaledInt64(int64(c.MaxGroups), frac))
	}
	if c.MDLookupTimeout > 0 {
		scaled.MDLookupTimeout = time.Duration(scaledInt64(int64(c.MDLookupTimeout), frac))
	}
	if len(c.Stages) > 0 {
		stages := make([]Stage, len(c.Stages))
		copy(stages, c.Stages)
		for i := range stages {
			if stages[i].Timeout > 0 {
				stages[i].Timeout = time.Duration(scaledInt64(int64(stages[i].Timeout), frac))
			}
			if stages[i].StepLimit > 0 {
				stages[i].StepLimit = scaledInt64(stages[i].StepLimit, frac)
			}
		}
		scaled.Stages = stages
	}
	return scaled
}

// scaledInt64 scales v by frac, clamping to at least 1 so a bounded budget
// never becomes "unbounded" (0) or negative through scaling.
func scaledInt64(v int64, frac float64) int64 {
	s := int64(float64(v) * frac)
	if s < 1 {
		return 1
	}
	return s
}

// disabled builds the effective rule-disable set for a stage.
func (c *Config) disabled(stage *Stage) map[string]bool {
	out := make(map[string]bool)
	for _, r := range c.DisabledRules {
		out[r] = true
	}
	if stage != nil {
		for _, r := range stage.DisabledRules {
			out[r] = true
		}
	}
	return out
}

// effectiveStages returns the configured stages, or the default single
// unrestricted stage.
func (c *Config) effectiveStages() []Stage {
	if len(c.Stages) == 0 {
		return []Stage{{Name: "full"}}
	}
	return c.Stages
}
