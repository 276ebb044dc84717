package md

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"orca/internal/fault"
	"orca/internal/gpos"
)

// CodeLookupTimeout is the gpos.Exception code raised when a provider lookup
// exceeds the session's per-lookup timeout.
const CodeLookupTimeout = "LookupTimeout"

// CodeLookupCancelled is the gpos.Exception code raised when the session's
// base context (bound with Accessor.BindContext) is cancelled while a
// provider lookup is in flight.
const CodeLookupCancelled = "LookupCancelled"

// Accessor mediates all metadata access for one optimization session (paper
// §5, Figure 9). It keeps track of every object pinned during the session
// and releases them all when the session completes or aborts; it fetches
// objects transparently from the session's external provider when the shared
// cache misses. Different concurrent sessions may use different providers
// against the same cache.
//
// The accessor also records which objects the session touched, which is what
// AMPERe harvests into a minimal repro dump (paper §6.1: "the dump captures
// the state of MD Cache which includes only the metadata acquired during the
// course of query optimization").
type Accessor struct {
	cache    *Cache
	provider Provider
	timeout  time.Duration
	retry    RetryPolicy
	ctx      context.Context

	// openVersion is the cache's invalidation stamp at accessor creation —
	// i.e. before the session's bind phase reads any metadata. See
	// MDVersionAtOpen.
	openVersion int64

	retries atomic.Int64

	mu      sync.Mutex
	pinned  map[MDId]int
	touched []MDId
}

// NewAccessor opens a session-scoped accessor over the shared cache and the
// session's provider. The session context defaults to context.Background();
// hosts that carry a request context bind it with BindContext so provider
// lookups inherit the request's cancellation.
func NewAccessor(cache *Cache, provider Provider) *Accessor {
	a := &Accessor{
		cache:    cache,
		provider: provider,
		ctx:      context.Background(),
		pinned:   make(map[MDId]int),
	}
	if cache != nil {
		a.openVersion = cache.Version()
	}
	return a
}

// BindContext attaches the session's base context: every provider lookup
// derives its per-lookup deadline from ctx, so cancelling the request
// cancels in-flight metadata fetches. Must be called before optimization
// starts; a nil ctx keeps the current binding.
func (a *Accessor) BindContext(ctx context.Context) {
	if ctx != nil {
		a.ctx = ctx
	}
}

// SetLookupTimeout bounds each provider lookup (cache misses and name
// resolution). Zero means unlimited. A lookup exceeding the bound fails with
// a CompMD gpos.Exception (CodeLookupTimeout) so a hung or slow provider
// fails one metadata access — and through it, at worst, one optimization
// stage — instead of hanging the session.
func (a *Accessor) SetLookupTimeout(d time.Duration) { a.timeout = d }

// SetRetryPolicy arms retry-with-backoff for transient provider lookups
// (see RetryPolicy). The zero policy — the default — disables retry. With
// retry enabled, each attempt still runs under the per-lookup timeout, and
// the whole loop is budgeted by the session's base context.
func (a *Accessor) SetRetryPolicy(p RetryPolicy) { a.retry = p }

// LookupRetries reports how many provider-lookup retries this session has
// performed — transient failures that were absorbed by the retry loop
// rather than surfaced. The serving tier aggregates this into /varz.
func (a *Accessor) LookupRetries() int64 { return a.retries.Load() }

// MDVersion returns the shared metadata cache's monotonic invalidation stamp
// as observed by this session (see Cache.Version). Derived artifacts keyed
// on metadata — cached plans above all — record this stamp and are orphaned
// by any later bump.
func (a *Accessor) MDVersion() int64 {
	if a.cache == nil {
		return 0
	}
	return a.cache.Version()
}

// MDVersionAtOpen returns the invalidation stamp snapshotted when the
// accessor was created — before any of the session's metadata reads,
// including the bind phase's. A derived artifact is only coherent if no bump
// landed anywhere in its production window; since the stamp is monotonic,
// MDVersion() == MDVersionAtOpen() at admission time proves exactly that.
// Checking only the post-bind stamp is not enough: a bump landing mid-bind
// would leave a tree bound against old metadata carrying a fresh stamp.
func (a *Accessor) MDVersionAtOpen() int64 { return a.openVersion }

// Get returns the metadata object with the given id, fetching it through the
// provider on a cache miss and pinning it for the session.
func (a *Accessor) Get(id MDId) (Object, error) {
	if !id.IsValid() {
		return nil, NotFound("invalid mdid %s", id)
	}
	if err := fault.Inject(fault.PointMDCacheLookup); err != nil {
		return nil, err
	}
	obj, ok := a.cache.Lookup(id)
	if !ok {
		fetched, err := a.fetchObject(id)
		if err != nil {
			return nil, err
		}
		obj = a.cache.Insert(fetched)
	}
	a.mu.Lock()
	a.pinned[id]++
	if a.pinned[id] == 1 {
		a.touched = append(a.touched, id)
	}
	a.mu.Unlock()
	return obj, nil
}

// fetchObject retrieves an object from the provider under the session's
// lookup timeout and retry policy.
func (a *Accessor) fetchObject(id MDId) (Object, error) {
	return timedLookup(a, a.timeout, func() string { return fmt.Sprintf("object %s", id) }, func(ctx context.Context) (Object, error) {
		if err := fault.Inject(fault.PointMDProviderFetch); err != nil {
			return nil, err
		}
		return a.provider.GetObject(ctx, id)
	})
}

// timedLookup runs a provider call under the session's base context, retry
// policy and the per-attempt timeout (0 = unbounded). Each attempt is
// deadline-bounded by attemptLookup; failures classified transient by
// IsTransient are retried with exponential backoff and jitter until the
// attempt budget, the base context, or its deadline runs out — whichever
// comes first — so a flaky catalog backend costs latency, not the query.
// Terminal failures surface immediately. The serve/md/transient-error fault
// point fires before each attempt and injects an explicitly transient
// failure, exercising the retry machinery end to end under the chaos gate.
// what names the object looked up for an error message; it is called only
// when a lookup times out or is cancelled, so a lookup that succeeds
// formats nothing.
func timedLookup[T any](a *Accessor, timeout time.Duration, what func() string, call func(context.Context) (T, error)) (T, error) {
	var zero T
	var last error
	attempts := a.retry.attempts()
	for attempt := 1; ; attempt++ {
		if err := fault.Inject(fault.PointServeMDTransient); err != nil {
			last = Transient(err)
		} else {
			v, err := attemptLookup(a.ctx, timeout, what, call)
			if err == nil {
				return v, nil
			}
			last = err
		}
		if attempt >= attempts || !IsTransient(last) {
			return zero, last
		}
		if !backoffWait(a.ctx, a.retry.backoff(attempt)) {
			// The request deadline expired (or would expire mid-backoff):
			// the retry budget is spent, surface the last transient failure.
			return zero, last
		}
		a.retries.Add(1)
	}
}

// attemptLookup runs one provider call under the base context, bounding it
// by the timeout (0 = unbounded, called inline). With a timeout the call
// runs on its own goroutine and the caller abandons it once the deadline
// passes — the derived context is cancelled so a cooperative provider stops
// promptly, but a provider that ignores cancellation leaks its goroutine
// until it returns, which is the price of not hanging the optimization.
// Cancelling the base context cancels the lookup either way.
func attemptLookup[T any](base context.Context, timeout time.Duration, what func() string, call func(context.Context) (T, error)) (T, error) {
	if timeout <= 0 {
		return call(base)
	}
	ctx, cancel := context.WithTimeout(base, timeout)
	defer cancel()
	type result struct {
		val T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := call(ctx)
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.val, r.err
	case <-ctx.Done():
		var zero T
		if base.Err() != nil {
			return zero, gpos.Raise(gpos.CompMD, CodeLookupCancelled,
				"metadata lookup of %s cancelled: %v", what(), base.Err())
		}
		return zero, gpos.Raise(gpos.CompMD, CodeLookupTimeout,
			"metadata lookup of %s exceeded %v", what(), timeout)
	}
}

// Relation returns the relation with the given id.
func (a *Accessor) Relation(id MDId) (*Relation, error) {
	obj, err := a.Get(id)
	if err != nil {
		return nil, err
	}
	rel, ok := obj.(*Relation)
	if !ok {
		return nil, fmt.Errorf("md: object %s is %T, not a relation", id, obj)
	}
	return rel, nil
}

// RelationByName resolves and returns a relation by name.
func (a *Accessor) RelationByName(name string) (*Relation, error) {
	id, err := timedLookup(a, a.nameTimeout(), func() string { return fmt.Sprintf("relation %q", name) }, func(ctx context.Context) (MDId, error) {
		return a.provider.LookupRelation(ctx, name)
	})
	if err != nil {
		return nil, err
	}
	return a.Relation(id)
}

// nameTimeout bounds the resolution of a relation name, which every table
// reference of every bind asks the provider for. The in-memory catalog
// answers with a map read under a read lock, which cannot hang, so its
// names resolve inline: a timer and a goroutine per table reference would
// bound nothing, and the hand-off to the goroutine lets the scheduler run
// whatever else is runnable, a collector's mark worker included, in the
// middle of the bind. A fetch keeps the timeout whatever the provider, as
// its fault point can delay it the way a slow backend would.
func (a *Accessor) nameTimeout() time.Duration {
	if _, inMemory := a.provider.(*MemProvider); inMemory {
		return 0
	}
	return a.timeout
}

// Stats returns the statistics object for a relation. Statistics are loaded
// on demand — during the statistics-derivation step, not at bind time —
// matching the paper's lazy histogram loading (§4.1 step 2).
func (a *Accessor) Stats(id MDId) (*RelStats, error) {
	obj, err := a.Get(id)
	if err != nil {
		return nil, err
	}
	st, ok := obj.(*RelStats)
	if !ok {
		return nil, fmt.Errorf("md: object %s is %T, not relation stats", id, obj)
	}
	return st, nil
}

// Type returns a scalar type object.
func (a *Accessor) Type(id MDId) (*Type, error) {
	obj, err := a.Get(id)
	if err != nil {
		return nil, err
	}
	t, ok := obj.(*Type)
	if !ok {
		return nil, fmt.Errorf("md: object %s is %T, not a type", id, obj)
	}
	return t, nil
}

// Index returns an index object.
func (a *Accessor) Index(id MDId) (*Index, error) {
	obj, err := a.Get(id)
	if err != nil {
		return nil, err
	}
	ix, ok := obj.(*Index)
	if !ok {
		return nil, fmt.Errorf("md: object %s is %T, not an index", id, obj)
	}
	return ix, nil
}

// Touched returns the ids of all objects accessed in this session, in first-
// touch order. AMPERe serializes exactly these into a dump.
func (a *Accessor) Touched() []MDId {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]MDId, len(a.touched))
	copy(out, a.touched)
	return out
}

// Close unpins everything the session pinned. The accessor must not be used
// afterwards.
func (a *Accessor) Close() {
	a.mu.Lock()
	pinned := a.pinned
	a.pinned = map[MDId]int{}
	a.mu.Unlock()
	for id, n := range pinned {
		for i := 0; i < n; i++ {
			a.cache.Unpin(id)
		}
	}
}

// Provider exposes the session's provider (for name resolution in binders).
func (a *Accessor) Provider() Provider { return a.provider }
