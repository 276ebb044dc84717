package main

// workloads.go defines the four workloads and generates their request
// streams from the seed. orcad sees only the generated requests.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// workload is one traffic mix. All four are closed loops: a host database
// calls orcad and waits for the plan, so each client sends its next request
// only after the previous reply.
type workload struct {
	name    string
	why     string   // one line; BENCHMARK.json carries the same text
	flags   []string // orcad flags beside the defaults
	clients int
	dxl     bool  // POST /optimize/dxl instead of /optimize
	cache   int64 // the mirror's plan-cache bytes: what flags give orcad; 0 = off
	// hitBand is the timed-phase plan-cache hit ratio the workload must show
	// to be measuring what it claims.
	hitBand [2]float64
	build   func(seed uint64, smoke bool, enc encoder) (*stream, error)
}

// encoder turns a query text into the request body of the workload's
// endpoint: a JSON object for /optimize, a DXL document for /optimize/dxl.
type encoder func(sqlText string) ([]byte, error)

// request is one generated optimize call. sql identifies it for reference
// rows even when the wire form is DXL.
type request struct {
	template string
	sql      string
	body     []byte
}

// stream is a workload's generated requests. The sequential phases take
// reqs[:warm] and reqs[warm:warm+verify]; the timed phase goes on from there
// and wraps around. unit > 0 makes the timed phase run whole units (passes)
// and report per unit; 0 reports per second.
type stream struct {
	reqs         []request
	warm, verify int
	unit         int
}

const (
	defaultCacheBytes = 64 << 20 // serve.DefaultPlanCacheBytes, orcad's default
	// churnCacheBytes is frozen so that the seed commit's steady hit ratio
	// on churn_mix lands inside churnHitBand; see README "Calibration".
	churnCacheBytes = 640 << 10
)

var churnHitBand = [2]float64{0.5, 0.8}

func workloads() []workload {
	return []workload{
		{
			name:    "cold_search",
			why:     "plan cache off, 1 client, shuffled passes over the 32 TPC-DS queries: search/memo/xform/stats/cost are >95% of service time",
			flags:   []string{"-plan-cache-off"},
			clients: 1,
			build:   buildColdSearch,
		},
		{
			name:    "warm_hits",
			why:     "default flags, 2 clients, 19 cacheable TPC-DS shapes + 1 partition-pruned range with literals re-drawn in-bucket: hit path only, search bypassed",
			clients: 2,
			cache:   defaultCacheBytes,
			hitBand: [2]float64{0.99, 1},
			build:   buildHits,
		},
		{
			name:    "dxl_hits",
			why:     "warm_hits' stream sent as DXL documents to /optimize/dxl: same cache use, DXL parse/serialize replace sql.Bind/Explain",
			clients: 2,
			dxl:     true,
			cache:   defaultCacheBytes,
			hitBand: [2]float64{0.99, 1},
			build:   buildHits,
		},
		{
			name:    "churn_mix",
			why:     "small plan cache, 2 clients, Zipf(1.0) over 640 generated star-join shape x bucket keys: admit, evict and 2-10 ms searches beside hits",
			flags:   []string{"-plan-cache-bytes=" + strconv.Itoa(churnCacheBytes)},
			clients: 2,
			cache:   churnCacheBytes,
			hitBand: churnHitBand,
			build:   buildChurn,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sqlBody is the encoder of POST /optimize.
func sqlBody(text string) ([]byte, error) { return json.Marshal(map[string]string{"sql": text}) }

// newRequest encodes one generated query.
func newRequest(template, text string, enc encoder) (request, error) {
	body, err := enc(text)
	if err != nil {
		return request{}, fmt.Errorf("%s: encoding request: %w", template, err)
	}
	return request{template: template, sql: text, body: body}, nil
}

// fixedSeed generates what must not change with --seed: the verify slice of
// every stream (so that plan_work_units and the wrong-plan count are exact
// and comparable across seeds) and churn_mix's key population (its templates,
// fixed like the TPC-DS texts are). Order, literals and draws of the warm-up
// and timed slices come from --seed.
const fixedSeed = 20140622

// rngFor derives an independent generator per purpose, so that changing how
// one part of a stream draws does not shift every other part.
func rngFor(seed uint64, purpose string) *rand.Rand {
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

func squeeze(sqlText string) string { return strings.Join(strings.Fields(sqlText), " ") }

// --- cold_search -----------------------------------------------------------

const coldPasses = 64 // far more than any run reaches at ~2 s a pass

func buildColdSearch(seed uint64, smoke bool, enc encoder) (*stream, error) {
	qs := fixedQueries()
	if smoke {
		qs = qs[:4] // q3 q42 q52 q55: milliseconds each
	}
	rng := rngFor(seed, "cold_search")
	s := &stream{warm: len(qs), verify: len(qs), unit: len(qs)}
	for p := 0; p < coldPasses; p++ {
		for _, i := range rng.Perm(len(qs)) {
			req, err := newRequest(qs[i][0], squeeze(qs[i][1]), enc)
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, req)
		}
	}
	return s, nil
}

// --- warm_hits / dxl_hits --------------------------------------------------

// cacheableShapes are the TPC-DS workload queries whose plans orcad's plan
// cache admits and serves (no subqueries, constants re-locatable).
var cacheableShapes = []string{
	"q3", "q42", "q52", "q55", "q19", "q15", "q25", "q38", "q87", "q67",
	"q53", "q73", "q79", "q82", "q93", "q84", "q96", "q29", "q68",
}

// rangeTemplate is the shape behind the plan cache's confirmed wrong-rows
// hit (ROADMAP): static partition elimination freezes the partition list of
// the first constant, and a rebound constant beyond it loses partitions. Its
// canonical constant 300 and every re-drawn one share the bucket [256,511].
const (
	rangeTemplateName = "range_pruned"
	rangeTemplateSQL  = "SELECT count(*) FROM store_sales WHERE ss_sold_date_sk < 300"
)

// sqlTemplate is a query text with its integer literals lifted out.
type sqlTemplate struct {
	name   string
	pieces []string // len(lits)+1 text pieces around the literals
	lits   []int64  // the canonical literals
}

var sqlToken = regexp.MustCompile(`'[^']*'|[A-Za-z_][A-Za-z_0-9.]*|\d+\.\d+|\d+`)

// parseTemplate lifts the integer literals out of text. Numbers after LIMIT
// and BY are syntax (row counts, ordinals), not constants; decimals and
// strings stay as they are.
func parseTemplate(name, text string) sqlTemplate {
	text = squeeze(text)
	t := sqlTemplate{name: name}
	last, prev := 0, ""
	for _, m := range sqlToken.FindAllStringIndex(text, -1) {
		tok := text[m[0]:m[1]]
		if tok[0] >= '0' && tok[0] <= '9' && !strings.Contains(tok, ".") && prev != "LIMIT" && prev != "BY" {
			v, err := strconv.ParseInt(tok, 10, 64)
			if err == nil {
				t.pieces = append(t.pieces, text[last:m[0]])
				t.lits = append(t.lits, v)
				last = m[1]
			}
		}
		prev = strings.ToUpper(tok)
	}
	t.pieces = append(t.pieces, text[last:])
	return t
}

func (t sqlTemplate) render(lits []int64) string {
	var b strings.Builder
	for i, v := range lits {
		b.WriteString(t.pieces[i])
		b.WriteString(strconv.FormatInt(v, 10))
	}
	b.WriteString(t.pieces[len(lits)])
	return b.String()
}

// bucketOf is the plan cache's selectivity bucket of a non-negative literal:
// values of one bit length share a bucket (internal/plancache/buckets.go).
func bucketOf(v int64) (lo, hi int64) {
	if v == 0 {
		return 0, 0
	}
	n := 0
	for x := v; x > 0; x >>= 1 {
		n++
	}
	return 1 << (n - 1), 1<<n - 1
}

// redraw moves each literal a few steps inside its bucket: the values stay
// plausible for their columns (a year stays a year), so results stay
// non-empty and the verify phase compares real rows.
func (t sqlTemplate) redraw(rng *rand.Rand) []int64 {
	out := make([]int64, len(t.lits))
	for i, v := range t.lits {
		lo, hi := bucketOf(v)
		v += int64(rng.Intn(7)) - 3
		out[i] = min(max(v, lo), hi)
	}
	return out
}

const hitsRounds = 128

func hitsTemplates(smoke bool) []sqlTemplate {
	byName := map[string]string{}
	for _, q := range fixedQueries() {
		byName[q[0]] = q[1]
	}
	names := cacheableShapes
	if smoke {
		names = []string{"q3", "q42", "q96"}
	}
	var ts []sqlTemplate
	for _, n := range names {
		ts = append(ts, parseTemplate(n, byName[n]))
	}
	return append(ts, parseTemplate(rangeTemplateName, rangeTemplateSQL))
}

// buildHits generates rounds, each a shuffle of all templates, so every
// window of the stream carries the same mix. Round 0 sends the canonical
// texts (it seeds the cache), later rounds re-draw the literals: rounds 0-1
// are the warm-up, 2-4 the verify slice. The range template draws from
// quarter (round mod 4) of its bucket, so that any three rounds in a row put
// constants on both sides of the partition boundary.
func buildHits(seed uint64, smoke bool, enc encoder) (*stream, error) {
	ts := hitsTemplates(smoke)
	seeded, fixed := rngFor(seed, "hits"), rngFor(fixedSeed, "hits/verify")
	s := &stream{warm: 2 * len(ts), verify: 3 * len(ts)}
	for r := 0; r < hitsRounds; r++ {
		rng := seeded
		if r >= 2 && r < 5 {
			rng = fixed
		}
		for _, i := range rng.Perm(len(ts)) {
			t := ts[i]
			lits := t.lits
			switch {
			case r == 0:
			case t.name == rangeTemplateName:
				lo, hi := bucketOf(t.lits[0])
				q := (hi - lo + 1) / 4
				lits = []int64{lo + int64(r%4)*q + rng.Int63n(q)}
			default:
				lits = t.redraw(rng)
			}
			req, err := newRequest(t.name, t.render(lits), enc)
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, req)
		}
	}
	return s, nil
}

// --- churn_mix -------------------------------------------------------------

type column struct {
	name   string
	lo, hi int64 // the column's value domain in the catalog
}

type dimension struct {
	table, alias, key, factKey string // factKey is the fact column's suffix
	cols                       []column
}

var churnFacts = []struct{ table, prefix string }{
	{"store_sales", "ss"}, {"catalog_sales", "cs"}, {"web_sales", "ws"},
}

var churnDims = []dimension{
	{"item", "i", "i_item_sk", "item_sk", []column{
		{"i_category_id", 0, 9}, {"i_brand_id", 0, 49}, {"i_class_id", 0, 19}, {"i_manager_id", 0, 39}}},
	{"date_dim", "d", "d_date_sk", "sold_date_sk", []column{
		{"d_year", 2019, 2023}, {"d_moy", 1, 12}, {"d_qoy", 1, 4}, {"d_dow", 0, 6}}},
	{"customer", "c", "c_customer_sk", "customer_sk", []column{
		{"c_birth_year", 1930, 1989}, {"c_preferred_flag", 0, 1}}},
	{"promotion", "p", "p_promo_sk", "promo_sk", []column{
		{"p_channel_id", 0, 2}}},
}

var churnMeasures = []column{{"quantity", 1, 100}, {"sales_price", 1, 200}}

var churnAggs = []string{"sum(f.%s_sales_price)", "count(*)", "sum(f.%s_net_profit)", "avg(f.%s_quantity)"}

// churnKey is one plan-cache key of the population: a star-join shape with
// the bucket each of its literals is drawn from.
type churnKey struct {
	text    string     // SQL with %d holes, one per literal
	buckets [][2]int64 // value range per hole: bucket ∩ column domain
}

// domainBuckets splits a column's domain along the plan cache's bucket
// boundaries.
func domainBuckets(c column) [][2]int64 {
	var out [][2]int64
	for v := c.lo; v <= c.hi; {
		_, hi := bucketOf(v)
		hi = min(hi, c.hi)
		out = append(out, [2]int64{v, hi})
		v = hi + 1
	}
	return out
}

// drawChurnKey draws a random star join: a fact table, 1-3 dimensions, a
// group-by column, an aggregate, an equality filter on a dimension column
// and, half the time, a range filter on a fact measure.
func drawChurnKey(rng *rand.Rand) churnKey {
	fact := churnFacts[rng.Intn(len(churnFacts))]
	perm := rng.Perm(len(churnDims))
	dims := perm[:1+rng.Intn(3)]
	sort.Ints(dims)
	from := []string{fact.table + " f"}
	var where []string
	for _, di := range dims {
		d := churnDims[di]
		from = append(from, d.table+" "+d.alias)
		where = append(where, fmt.Sprintf("f.%s_%s = %s.%s", fact.prefix, d.factKey, d.alias, d.key))
	}
	gd := churnDims[dims[rng.Intn(len(dims))]]
	group := gd.alias + "." + gd.cols[rng.Intn(len(gd.cols))].name
	agg := churnAggs[rng.Intn(len(churnAggs))]
	if strings.Contains(agg, "%s") {
		agg = fmt.Sprintf(agg, fact.prefix)
	}
	var k churnKey
	fd := churnDims[dims[rng.Intn(len(dims))]]
	fc := fd.cols[rng.Intn(len(fd.cols))]
	where = append(where, fd.alias+"."+fc.name+" = %d")
	bs := domainBuckets(fc)
	k.buckets = append(k.buckets, bs[rng.Intn(len(bs))])
	if rng.Intn(2) == 0 {
		m := churnMeasures[rng.Intn(len(churnMeasures))]
		op := []string{"<", ">"}[rng.Intn(2)]
		where = append(where, fmt.Sprintf("f.%s_%s %s %%d", fact.prefix, m.name, op))
		bs := domainBuckets(m)
		k.buckets = append(k.buckets, bs[rng.Intn(len(bs))])
	}
	k.text = fmt.Sprintf("SELECT %s, %s AS m FROM %s WHERE %s GROUP BY %s ORDER BY %s LIMIT 100",
		group, agg, strings.Join(from, ", "), strings.Join(where, " AND "), group, group)
	return k
}

const (
	churnKeys = 640
	churnPool = 4096
)

// buildChurn draws the key population, then a Zipf(1.0) sequence over it
// (rank = order drawn), each request with literals drawn fresh inside its
// key's buckets.
func buildChurn(seed uint64, smoke bool, enc encoder) (*stream, error) {
	keys, pool, warm, verify := churnKeys, churnPool, 768, 48
	if smoke {
		keys, pool, warm, verify = 24, 96, 24, 8
	}
	rng := rngFor(fixedSeed, "churn/keys")
	var pop []churnKey
	seen := map[string]bool{}
	for len(pop) < keys {
		k := drawChurnKey(rng)
		id := fmt.Sprint(k.text, k.buckets)
		if !seen[id] {
			seen[id] = true
			pop = append(pop, k)
		}
	}
	// Zipf with exponent 1: P(rank r) ∝ 1/r. (math/rand's Zipf needs s > 1.)
	cum := make([]float64, keys)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	seeded, fixed := rngFor(seed, "churn/draws"), rngFor(fixedSeed, "churn/verify")
	s := &stream{warm: warm, verify: verify}
	for i := 0; i < pool; i++ {
		rng = seeded
		if i >= warm && i < warm+verify {
			rng = fixed
		}
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		k := pop[min(r, keys-1)]
		args := make([]any, len(k.buckets))
		for j, b := range k.buckets {
			args[j] = b[0] + rng.Int63n(b[1]-b[0]+1)
		}
		req, err := newRequest("star"+strconv.Itoa(r), fmt.Sprintf(k.text, args...), enc)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, req)
	}
	return s, nil
}
