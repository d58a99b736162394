// The merge contract every report rests on. Reports are finalized from
// accumulators merged across shards, dist worker processes, window buckets
// and daemon restarts, so all three paths assume these laws:
//
//   - observing a‖b‖c into one accumulator equals merging the accumulators
//     of a, b and c (each rebased by OffsetSeq);
//   - merge is associative and commutative, and an empty accumulator is its
//     identity;
//   - DecodeState∘EncodeState keeps the sealed state bytes, the state and
//     the report bytes.
//
// Two fuzz targets check them over one generator: fuzz bytes pick up to
// lawMaxObs observations, split three ways, from a pool built once per test
// binary. FuzzShardMerge checks the first two on every exec;
// FuzzPartialSnapshotDecode checks the third, and decodes hostile state. A dropped field in merge, in the encoder or in the
// decoder breaks one of the laws as soon as an input fills that field, and
// TestLawPoolFillsEveryField keeps the pool able to fill every field.
package analysis

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/graph"
	"certchains/internal/lint"
)

// lawMaxObs bounds one generated input; lawMaxChain keeps the two oversized
// Figure 1 outliers (921 and 3,822 certificates) out of the pool and the
// 41-certificate one in.
const (
	lawMaxObs   = 50
	lawMaxChain = 41
)

var (
	lawOnce sync.Once
	lawPool []*campus.Observation
	// lawCover is a short pool selection that fills every state field the
	// pool can fill; the fuzz seeds are built from it.
	lawCover []int
)

// lawSetup returns shardSetup's pipeline (seed 1, scale 0.002, linting at
// lint.ProfileAll) and the pool of its observations with at most lawMaxChain
// certificates.
func lawSetup(tb testing.TB) (*Pipeline, []*campus.Observation) {
	tb.Helper()
	s, p := shardSetup(tb)
	lawOnce.Do(func() {
		for _, o := range s.Observations {
			if len(o.Chain) <= lawMaxChain {
				lawPool = append(lawPool, o)
			}
		}
		covered := map[string]bool{}
		for i, o := range lawPool {
			pr := p.newPartial()
			pr.observe(0, o)
			grew := false
			for path := range filledPaths(pr) {
				if !covered[path] {
					covered[path], grew = true, true
				}
			}
			if grew {
				lawCover = append(lawCover, i)
			}
		}
	})
	return p, lawPool
}

// lawInput encodes a generator input: two cut bytes, then one big-endian
// pool index per observation.
func lawInput(cut1, cut2 byte, idx ...int) []byte {
	data := []byte{cut1, cut2}
	for _, i := range idx {
		data = binary.BigEndian.AppendUint16(data, uint16(i))
	}
	return data
}

// lawSplit is the generator: it decodes fuzz bytes into three runs of pool
// observations. data[0] and data[1] place the two cuts; each following byte
// pair indexes the pool, up to lawMaxObs observations. Short input yields
// three empty runs.
func lawSplit(pool []*campus.Observation, data []byte) [3][]*campus.Observation {
	var picked []*campus.Observation
	for rest := data[min(2, len(data)):]; len(rest) >= 2 && len(picked) < lawMaxObs; rest = rest[2:] {
		picked = append(picked, pool[int(binary.BigEndian.Uint16(rest))%len(pool)])
	}
	var i, j int
	if len(data) >= 2 {
		i, j = int(data[0])%(len(picked)+1), int(data[1])%(len(picked)+1)
	}
	i, j = min(i, j), max(i, j)
	return [3][]*campus.Observation{picked[:i], picked[i:j], picked[j:]}
}

// observeRun folds obs into a fresh accumulator rebased to start, the way a
// dist worker's partition is rebased before the coordinator merges it.
func observeRun(p *Pipeline, start int, obs []*campus.Observation) *Accumulator {
	a := p.NewAccumulator()
	for _, o := range obs {
		a.Observe(o)
	}
	a.OffsetSeq(int64(start))
	return a
}

// lawParts observes the three runs into rebased accumulators.
func lawParts(p *Pipeline, runs [3][]*campus.Observation) [3]*Accumulator {
	var out [3]*Accumulator
	start := 0
	for k, run := range runs {
		out[k] = observeRun(p, start, run)
		start += len(run)
	}
	return out
}

// fold merges accs, in order, into a fresh accumulator.
func fold(p *Pipeline, accs ...*Accumulator) *Accumulator {
	out := p.NewAccumulator()
	for _, a := range accs {
		out.Merge(a)
	}
	return out
}

// sameState reports whether x and y hold the same state: equal observation
// counts and equal partials by sameFields.
func sameState(x, y *Accumulator) bool {
	return x.n == y.n && sameFields(reflect.ValueOf(x.pr).Elem(), reflect.ValueOf(y.pr).Elem())
}

// sameFields compares the exported fields of two structs of one type
// deeply; the unexported ones it skips are configuration or scratch (the
// pipeline, the linter, key buffers). An outlier list compares sorted: merge
// appends in merge order, and encoding sorts. A graph compares by its
// encoding: a decoded graph's nodes point at certificates rebuilt from the
// state's table, equal but for the lazily cached DN keys.
func sameFields(x, y reflect.Value) bool {
	for i := range x.NumField() {
		if !x.Type().Field(i).IsExported() {
			continue
		}
		a, b := x.Field(i), y.Field(i)
		switch v := a.Interface().(type) {
		case outliers:
			if !slices.Equal(sortedOutliers(v), sortedOutliers(b.Interface().(outliers))) {
				return false
			}
		case *graph.Graph:
			gx, errx := json.Marshal(v)
			gy, erry := json.Marshal(b.Interface())
			if errx != nil || erry != nil || !bytes.Equal(gx, gy) {
				return false
			}
		case *lint.CorpusReport:
			if a.IsNil() != b.IsNil() || !a.IsNil() && !sameFields(a.Elem(), b.Elem()) {
				return false
			}
		default:
			if !reflect.DeepEqual(v, b.Interface()) {
				return false
			}
		}
	}
	return true
}

// sortedOutliers returns a sorted copy of x.
func sortedOutliers(x outliers) outliers {
	x = slices.Clone(x)
	slices.SortFunc(x, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return x
}

// sealedOf is EncodeState, failing the test on error.
func sealedOf(tb testing.TB, a *Accumulator) []byte {
	tb.Helper()
	data, err := a.EncodeState()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// reportOf finalizes a and returns its rendered text and JSON export; a must
// not be used afterwards.
func reportOf(t *testing.T, a *Accumulator) string {
	t.Helper()
	r := a.Finalize()
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return r.Render() + string(js)
}

// checkMergeLaws checks the split, associativity, commutativity and
// identity laws on one generated input.
func checkMergeLaws(t *testing.T, data []byte) {
	p, pool := lawSetup(t)
	runs := lawSplit(pool, data)
	whole := p.NewAccumulator()
	for _, run := range runs {
		for _, o := range run {
			whole.Observe(o)
		}
	}
	parts := lawParts(p, runs)
	a, b, c := parts[0], parts[1], parts[2]

	if !sameState(fold(p, a, b, c), whole) {
		t.Fatalf("split law: merging the parts of a‖b‖c differs from observing it whole")
	}
	if !sameState(fold(p, a, fold(p, b, c)), whole) {
		t.Fatalf("associativity: a⊕(b⊕c) differs from (a⊕b)⊕c")
	}
	if !sameState(fold(p, c, b, a), whole) {
		t.Fatalf("commutativity: c⊕b⊕a differs from a⊕b⊕c")
	}
	checkIdentity(t, p, whole)
}

// checkIdentity requires ∅⊕x and x⊕∅ to equal x; it leaves x as x⊕∅.
func checkIdentity(t *testing.T, p *Pipeline, x *Accumulator) {
	t.Helper()
	if !sameState(fold(p, x), x) {
		t.Fatalf("identity: ∅⊕x differs from x")
	}
	before := fold(p, x)
	x.Merge(p.NewAccumulator())
	if !sameState(x, before) {
		t.Fatalf("identity: x⊕∅ differs from x")
	}
}

// decodeOrFail is DecodeState, failing the test on error.
func decodeOrFail(t *testing.T, p *Pipeline, data []byte) *Accumulator {
	t.Helper()
	a, err := p.DecodeState(data)
	if err != nil {
		t.Fatalf("DecodeState of EncodeState output: %v", err)
	}
	return a
}

// lastRoundTrip is the generator input checkCodecLaws last checked, with
// its accumulator's sealed state. The round trip depends on gen alone, and
// the fuzzer mutates and minimises state with gen fixed, so a repeated gen
// reuses the sealed state instead of checking the same round trip again.
var lastRoundTrip struct {
	sync.Mutex
	gen, sealed []byte
}

// checkCodecLaws checks the round-trip law on the accumulator gen
// describes, then decodes state as hostile sealed bytes: decoding must error
// cleanly or yield an accumulator that obeys identity and commutativity with
// the generated one and survives what the coordinator does with it.
func checkCodecLaws(t *testing.T, gen, state []byte) {
	p, _ := lawSetup(t)
	sealed := roundTripOnce(t, gen)

	hostile, err := p.DecodeState(state)
	if err != nil {
		if hostile != nil {
			t.Fatal("DecodeState returned both an accumulator and an error")
		}
		return
	}
	checkIdentity(t, p, hostile)
	g := decodeOrFail(t, p, sealed)
	if !sameState(fold(p, hostile, g), fold(p, g, hostile)) {
		t.Fatalf("commutativity: decoded⊕generated differs from generated⊕decoded")
	}
	hostile.OffsetSeq(7)
	if rep := fold(p, hostile).Finalize(); rep == nil {
		t.Fatal("finalize returned nil report")
	}
}

// roundTripOnce runs checkRoundTrip on gen unless gen is lastRoundTrip's,
// and returns gen's sealed state.
func roundTripOnce(t *testing.T, gen []byte) []byte {
	p, pool := lawSetup(t)
	lastRoundTrip.Lock()
	defer lastRoundTrip.Unlock()
	if lastRoundTrip.sealed == nil || !bytes.Equal(gen, lastRoundTrip.gen) {
		lastRoundTrip.sealed = nil
		sealed := checkRoundTrip(t, p, lawSplit(pool, gen))
		lastRoundTrip.gen, lastRoundTrip.sealed = bytes.Clone(gen), sealed
	}
	return lastRoundTrip.sealed
}

// checkRoundTrip folds the three runs into one accumulator and requires
// DecodeState∘EncodeState to keep its sealed state bytes and its report
// bytes. It returns the sealed state.
func checkRoundTrip(t *testing.T, p *Pipeline, runs [3][]*campus.Observation) []byte {
	t.Helper()
	parts := lawParts(p, runs)
	acc := fold(p, parts[:]...)
	sealed := sealedOf(t, acc)
	dec := decodeOrFail(t, p, sealed)
	if again := sealedOf(t, dec); !bytes.Equal(again, sealed) {
		t.Fatalf("round trip: EncodeState∘DecodeState changed the sealed state bytes")
	}
	if !sameState(dec, acc) {
		t.Fatalf("round trip: the decoded accumulator holds different state")
	}
	if reportOf(t, dec) != reportOf(t, acc) {
		t.Fatalf("round trip: the decoded accumulator reports differently")
	}
	return sealed
}

// lawSeeds are generator inputs over lawCover: split in thirds, all in the
// last part, doubled up (every observation twice), and one observation.
func lawSeeds(tb testing.TB) [][]byte {
	lawSetup(tb)
	n := len(lawCover)
	doubled := append(append([]int(nil), lawCover...), lawCover...)
	return [][]byte{
		nil,
		lawInput(byte(n/3), byte(2*n/3), lawCover...),
		lawInput(0, 0, lawCover...),
		lawInput(7, 31, doubled[:min(len(doubled), lawMaxObs)]...),
		lawInput(1, 1, lawCover[n-1]),
	}
}

// FuzzShardMerge checks the split, associativity, commutativity and identity
// laws on generated inputs.
func FuzzShardMerge(f *testing.F) {
	for _, seed := range lawSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkMergeLaws)
}

// FuzzPartialSnapshotDecode checks the round-trip law on generated inputs
// and hammers the decoder with hostile sealed state: the coordinator decodes
// network input, so any outcome but (accumulator, nil) or (nil, error) — in
// particular a panic — is a bug. Its seeds stay small, because the fuzzer
// minimises every input that finds new coverage at a cost quadratic in its
// length; TestCodecLawsOnCorpusState runs the large valid states once.
func FuzzPartialSnapshotDecode(f *testing.F) {
	p, _ := lawSetup(f)
	hostile := [][]byte{
		nil,
		[]byte(`{}`),
		[]byte(`{"schema":"x","version":9,"payload":{}}`),
		[]byte(`{"schema":"certchains/analysis-partial","version":1,"payload":{}}`),
		[]byte(`{"schema":"certchains/analysis-partial","version":1,"payload":{"observations":-1}}`),
		[]byte(`{"schema":"certchains/analysis-partial","version":1,"payload":{"partial":{"chains":["|"]}}}`),
	}
	for _, tc := range malformedPartials {
		hostile = append(hostile, sealedPartial(f, tc.partial))
	}
	empty := sealedOf(f, p.NewAccumulator())
	hostile = append(hostile, empty, empty[:len(empty)/2])
	for i, state := range hostile {
		f.Add(lawInput(byte(i), byte(i+1), lawCover[i%len(lawCover)]), state)
	}
	f.Fuzz(checkCodecLaws)
}

// TestCodecLawsOnCorpusState runs FuzzPartialSnapshotDecode's body with the
// generator's seeds and, as hostile state, the sealed state of the first
// quarter of the corpus, its first half, and each generator seed's own
// sealed state: too large to seed a fuzzer, and each worth one exec.
func TestCodecLawsOnCorpusState(t *testing.T) {
	s, p := shardSetup(t)
	valid := sealedOf(t, observeRun(p, 0, s.Observations[:len(s.Observations)/4]))
	seeds := lawSeeds(t)
	checkCodecLaws(t, seeds[1], valid)
	checkCodecLaws(t, seeds[1], valid[:len(valid)/2])
	_, pool := lawSetup(t)
	for _, seed := range seeds {
		parts := lawParts(p, lawSplit(pool, seed))
		checkCodecLaws(t, seed, sealedOf(t, fold(p, parts[:]...)))
	}
}

// filledPaths names the state pr holds beyond an empty partial: each
// exported field whose encoding differs from a fresh partial's, and, for a
// struct-typed field, each differing key of its encoding ("dga.min_validity",
// "sec42.fake_le_chains").
func filledPaths(pr *partialReport) map[string]bool {
	got, empty := fieldEncodings(pr), fieldEncodings(pr.p.newPartial())
	out := map[string]bool{}
	for name, enc := range got {
		if bytes.Equal(enc.js, empty[name].js) {
			continue
		}
		out[name] = true
		if !enc.isStruct {
			continue
		}
		var sub, subEmpty map[string]json.RawMessage
		if json.Unmarshal(enc.js, &sub) != nil {
			continue
		}
		json.Unmarshal(empty[name].js, &subEmpty) // an absent field leaves it empty
		for key, v := range sub {
			if !bytes.Equal(v, subEmpty[key]) {
				out[name+"."+key] = true
			}
		}
	}
	return out
}

// fieldEncoding is one exported field's JSON, omitempty or not.
type fieldEncoding struct {
	js       []byte
	isStruct bool
}

// fieldEncodings encodes each exported field of pr under its Go name.
func fieldEncodings(pr *partialReport) map[string]fieldEncoding {
	v := reflect.ValueOf(pr).Elem()
	out := map[string]fieldEncoding{}
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		js, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			panic(err)
		}
		typ := f.Type
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		out[f.Name] = fieldEncoding{js: js, isStruct: typ.Kind() == reflect.Struct}
	}
	return out
}

// TestLawPoolFillsEveryField stands guard for the laws: they only see a
// dropped field when an input fills it, so observing the whole pool must
// leave no exported partialReport field as an empty partial has it, and the
// fuzz seeds' cover must fill everything the pool does. A new field the pool
// cannot fill fails here until the pool (or the scenario) exercises it.
func TestLawPoolFillsEveryField(t *testing.T) {
	p, pool := lawSetup(t)
	all := p.newPartial()
	for i, o := range pool {
		all.observe(i, o)
	}
	filled := filledPaths(all)
	for name := range fieldEncodings(all) {
		if !filled[name] {
			t.Errorf("the pool leaves partialReport.%s empty", name)
		}
	}
	if len(lawCover) > lawMaxObs {
		t.Fatalf("the seed cover needs %d observations, more than one input's %d", len(lawCover), lawMaxObs)
	}
	cover := p.newPartial()
	for i, k := range lawCover {
		cover.observe(i, pool[k])
	}
	for path := range filled {
		if !filledPaths(cover)[path] {
			t.Errorf("the seed cover leaves %s empty", path)
		}
	}
}

// malformedPartials are partial payloads that are valid JSON but that no
// encoder writes: a histogram or CDF of the wrong shape, a client-IP set
// without its Table 2 row, an unknown port group, or a null over a structure
// the accumulator writes through. The first five once decoded without error
// and then panicked in merge or finalize, or silently dropped points.
var malformedPartials = []struct{ name, partial string }{
	{"figure6 without bins", `{"figure6":{"lo":0,"hi":1,"bins":[]}}`},
	{"figure6 with two bins", `{"figure6":{"lo":0,"hi":1,"bins":[0,0]}}`},
	{"figure6 with empty range", `{"figure6":{"lo":0,"hi":0,"bins":[0,0,0,0,0,0,0,0,0,0]}}`},
	{"ip_sets category without table2 row", `{"ip_sets":{"2":["10.0.0.1"]}}`},
	{"figure1 with fewer counts than values", `{"figure1":{"0":{"values":[1,2],"counts":[1]}}}`},
	{"null figure1 cdf", `{"figure1":{"0":null}}`},
	{"null port_hist group", `{"port_hist":{"hybrid":null}}`},
	{"unknown port_hist group", `{"port_hist":{"bogus":{"443":1}}}`},
	{"null graph", `{"hybrid_graph":null}`},
	{"null table3", `{"table3":null}`},
	{"null lint findings", `{"lint":{"observations":0,"conns":0,"findings_per_chain":null}}`},
}

// sealedPartial wraps a partial payload in a valid state envelope.
func sealedPartial(tb testing.TB, partial string) []byte {
	tb.Helper()
	data, err := certmodel.Seal(StateSchema, StateVersion,
		json.RawMessage(`{"observations":1,"partial":`+partial+`}`))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDecodeStateRejectsMalformed requires DecodeState to refuse every
// malformedPartials payload: the coordinator merges and finalizes whatever
// decodes, so a partial no encoder writes must fail at the boundary.
func TestDecodeStateRejectsMalformed(t *testing.T) {
	p, _ := lawSetup(t)
	for _, tc := range malformedPartials {
		t.Run(tc.name, func(t *testing.T) {
			if acc, err := p.DecodeState(sealedPartial(t, tc.partial)); err == nil {
				t.Errorf("DecodeState accepted %s (observations %d)", tc.partial, acc.Observations())
			}
		})
	}
}
