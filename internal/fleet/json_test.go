package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// checkAppendJSON requires r.AppendJSON to reproduce json.Marshal(r):
// the same bytes appended after an existing prefix, or an error wrapping
// ErrNonFinite exactly when json.Marshal fails, with the prefix left as
// it was.
func checkAppendJSON(t *testing.T, r *Result) {
	t.Helper()
	want, werr := json.Marshal(r)
	prefix := []byte("prefix")
	got, err := r.AppendJSON(prefix)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, werr)
	case err != nil:
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("error %v does not wrap ErrNonFinite", err)
		}
		if string(got) != "prefix" {
			t.Fatalf("failed encode extended the buffer: %q", got)
		}
	case !bytes.Equal(got, append(prefix, want...)):
		t.Fatalf("AppendJSON diverged from json.Marshal\n got %s\nwant prefix%s", got, want)
	}
}

// jsonGridConfig is one deployment of the equivalence grid: a scenario,
// a receiver variant and a tag count on a fixed 20×30 m floor.
func jsonGridConfig(t *testing.T, scenario, variant string, tags int, seed int64) Config {
	t.Helper()
	sc, err := excite.FindScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Sources:   sc.Sources,
		Tags:      PlaceGrid(tags, 20, 30),
		Receivers: PlaceReceivers(2, 20, 30),
		Span:      300 * time.Millisecond,
		BucketMS:  100,
		Seed:      seed,
		Obs:       obs.NewRegistry(),
	}
	if strings.Contains(variant, "lux") {
		for i := range cfg.Tags {
			cfg.Tags[i].Energy = &sim.EnergyConfig{Lux: 800, StartCharged: true}
		}
	}
	if strings.Contains(variant, "shadow") {
		ch := channel.NewLoS()
		ch.ShadowSigmaDB = 3
		cfg.Channel = ch
	}
	switch variant {
	case "doubledecker":
		cfg.Baseline = BaselineDoubleDecker
	case "phase":
		cfg.Phase = &PhaseConfig{MaxDriftHz: 200}
	}
	return cfg
}

// TestAppendJSONMatchesMarshal pins the encoder to encoding/json over
// 120 engine results (every scenario × receiver variant × tag count)
// and over hand-built results with zero, nil and empty parts.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	variants := []string{"default", "doubledecker", "phase", "lux", "shadow", "lux+shadow"}
	seed := int64(1)
	for _, sc := range []string{"home", "office", "cafe", "warehouse"} {
		for _, v := range variants {
			for _, n := range []int{1, 9, 40, 64, 130} {
				t.Run(fmt.Sprintf("%s/%s/%d", sc, v, n), func(t *testing.T) {
					res, err := Run(jsonGridConfig(t, sc, v, n, seed))
					if err != nil {
						t.Fatal(err)
					}
					checkAppendJSON(t, res)
				})
				seed++
			}
		}
	}

	edge := map[string]*Result{
		"nil":      nil,
		"zero":     {},
		"0 tags":   {Tags: []TagResult{}, PerProtocol: []ProtocolTotals{}, Outcomes: OutcomeCounts{}, Buckets: []float64{}},
		"nil maps": {Tags: []TagResult{{}}, PerProtocol: []ProtocolTotals{{}}},
		"empty maps": {
			Tags: []TagResult{{
				RSSIdBm: map[string]float64{}, PhaseRad: map[string]float64{}, DriftHz: map[string]float64{},
				Outcomes: OutcomeCounts{}, PerProtocol: map[string]OutcomeCounts{},
			}},
			PerProtocol: []ProtocolTotals{{Outcomes: OutcomeCounts{}}},
			Outcomes:    OutcomeCounts{},
		},
		"nil per-protocol histogram": {Tags: []TagResult{{PerProtocol: map[string]OutcomeCounts{"BLE": nil}}}},
		"unknown keys": {
			Tags: []TagResult{{
				RSSIdBm:     map[string]float64{"BLE": -60, "LoRa": -90},
				PhaseRad:    map[string]float64{"": 1},
				Outcomes:    OutcomeCounts{sim.Delivered: 1, sim.Outcome(42): 2},
				PerProtocol: map[string]OutcomeCounts{"BLE": {sim.Outcome(-1): 3}, "<b>": {sim.Collided: 4}},
			}},
			Outcomes: OutcomeCounts{sim.Outcome(99): 1},
		},
		"escaped strings": {
			PerProtocol: []ProtocolTotals{
				{Name: "R&D"}, {Name: "a<b"}, {Name: "a>b"}, {Name: "tab\t"}, {Name: `q"`}, {Name: `b\s`},
				{Name: "ü"}, {Name: "\xff"}, {Name: "del\x7f"}, {Name: "\u2028"},
			},
			Baseline: "<doubledecker>",
		},
		"float forms": {
			Buckets: []float64{
				0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.999e20, 1e21, -1e21,
				123456789012345680000, 0.1, -2.5e-300, math.MaxFloat64,
			},
		},
	}
	for name, r := range edge {
		t.Run(name, func(t *testing.T) { checkAppendJSON(t, r) })
	}
}

// fillDistinct sets every JSON-visible field reachable from v to a
// distinct non-zero value: slices get two elements and maps take every
// key of the encoder's name tables. A field kind the encoder does not
// handle fails the test.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				fillDistinct(t, v.Field(i), n)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Map:
		var keys []reflect.Value
		switch v.Type().Key() {
		case reflect.TypeOf(sim.Outcome(0)):
			for _, k := range outcomesOrder {
				keys = append(keys, reflect.ValueOf(k))
			}
		case reflect.TypeOf(""):
			for _, p := range radio.Protocols {
				keys = append(keys, reflect.ValueOf(p.String()))
			}
		default:
			t.Fatalf("map key %v: teach AppendJSON and this test about it", v.Type().Key())
		}
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range keys {
			e := reflect.New(v.Type().Elem()).Elem()
			fillDistinct(t, e, n)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("field kind %v: teach AppendJSON and this test about it", v.Kind())
	}
}

// jsonNames lists the JSON member names of typ and of the structs it
// holds.
func jsonNames(typ reflect.Type) []string {
	switch typ.Kind() {
	case reflect.Slice, reflect.Map:
		return jsonNames(typ.Elem())
	case reflect.Struct:
	default:
		return nil
	}
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		names = append(names, name)
		names = append(names, jsonNames(f.Type)...)
	}
	return names
}

// filledResult is a Result with every field set by fillDistinct.
func filledResult(t *testing.T) *Result {
	r := &Result{}
	n := 0
	fillDistinct(t, reflect.ValueOf(r).Elem(), &n)
	return r
}

// TestAppendJSONSchemaCoverage fills every field of Result, TagResult,
// ProtocolTotals and CacheStats with a distinct value and requires the
// encoder to write every member json.Marshal writes, so a field added
// to the schema without updating AppendJSON fails here.
func TestAppendJSONSchemaCoverage(t *testing.T) {
	r := filledResult(t)
	checkAppendJSON(t, r)
	blob, _ := json.Marshal(r)
	for _, name := range jsonNames(reflect.TypeOf(*r)) {
		if !bytes.Contains(blob, []byte(`"`+name+`":`)) {
			t.Errorf("member %q missing from the filled result; fillDistinct left it empty", name)
		}
	}
}

// TestAppendJSONNonFinite puts NaN and ±Inf in every float-bearing field
// and requires an ErrNonFinite error naming the field's path.
func TestAppendJSONNonFinite(t *testing.T) {
	cases := []struct {
		path string
		set  func(r *Result, v float64)
	}{
		{"fleet_tag_kbps", func(r *Result, v float64) { r.FleetTagKbps = v }},
		{"mean_tag_kbps", func(r *Result, v float64) { r.MeanTagKbps = v }},
		{"fairness", func(r *Result, v float64) { r.Fairness = v }},
		{"buckets_kbps[1]", func(r *Result, v float64) { r.Buckets[1] = v }},
		{"tags[1].x", func(r *Result, v float64) { r.Tags[1].X = v }},
		{"tags[1].y", func(r *Result, v float64) { r.Tags[1].Y = v }},
		{"tags[1].distance_m", func(r *Result, v float64) { r.Tags[1].DistanceM = v }},
		{"tags[1].rssi_dbm.BLE", func(r *Result, v float64) { r.Tags[1].RSSIdBm["BLE"] = v }},
		{"tags[0].phase_rad.802.11n", func(r *Result, v float64) { r.Tags[0].PhaseRad["802.11n"] = v }},
		{"tags[1].drift_hz.ZigBee", func(r *Result, v float64) { r.Tags[1].DriftHz["ZigBee"] = v }},
		{"tags[1].tag_kbps", func(r *Result, v float64) { r.Tags[1].TagKbps = v }},
		{"per_protocol[1].tag_kbps", func(r *Result, v float64) { r.PerProtocol[1].TagKbps = v }},
		// A key outside the protocol table takes the encoding/json path.
		{"tags[0].rssi_dbm.LoRa", func(r *Result, v float64) { r.Tags[0].RSSIdBm["LoRa"] = v }},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := filledResult(t)
			tc.set(r, v)
			checkAppendJSON(t, r)
			_, err := r.AppendJSON(nil)
			if want := fmt.Sprintf("%s = %v", tc.path, v); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: error %v, want it to name %q", tc.path, v, err, want)
			}
		}
	}
}

// fuzzReader turns fuzz bytes into Result parts; an exhausted input
// reads as zeros.
type fuzzReader struct{ b []byte }

func (f *fuzzReader) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzReader) uint64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(f.byte())
	}
	return u
}

func (f *fuzzReader) int() int {
	if c := f.byte(); c < 0x80 {
		return int(c) - 0x40
	}
	return int(f.uint64())
}

// fuzzFloats are the values where float formatting changes form or
// encoding fails; other floats come from raw bits.
var fuzzFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324,
	2.2250738585072014e-308, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999e20, -1e21, 0.1,
}

func (f *fuzzReader) float() float64 {
	if c := int(f.byte()); c < 2*len(fuzzFloats) {
		return fuzzFloats[c%len(fuzzFloats)]
	}
	return math.Float64frombits(f.uint64())
}

// str returns a known protocol name or raw fuzz bytes, which may be
// invalid UTF-8 or need escaping.
func (f *fuzzReader) str() string {
	c := f.byte()
	if c < 0x80 {
		return radio.Protocols[int(c)%len(radio.Protocols)].String()
	}
	n := min(int(c&7), len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// size picks nil (-1), empty (0) or a few elements.
func (f *fuzzReader) size() int { return int(f.byte()%6) - 1 }

func (f *fuzzReader) floats() []float64 {
	n := f.size()
	if n < 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = f.float()
	}
	return s
}

func (f *fuzzReader) floatMap() map[string]float64 {
	n := f.size()
	if n < 0 {
		return nil
	}
	m := map[string]float64{}
	for i := 0; i < n; i++ {
		m[f.str()] = f.float()
	}
	return m
}

func (f *fuzzReader) outcomes() OutcomeCounts {
	n := f.size()
	if n < 0 {
		return nil
	}
	o := OutcomeCounts{}
	for i := 0; i < n; i++ {
		o[sim.Outcome(int(f.byte()%11)-1)] = f.int()
	}
	return o
}

func (f *fuzzReader) result() *Result {
	r := &Result{
		Span: time.Duration(f.int()), BucketDur: time.Duration(f.int()),
		Events: f.int(), ExciteCollided: f.int(), NumTags: f.int(), NumReceivers: f.int(),
	}
	if n := f.size(); n >= 0 {
		r.Tags = make([]TagResult, n)
		for i := range r.Tags {
			t := &r.Tags[i]
			t.ID, t.X, t.Y, t.Receiver, t.DistanceM = f.int(), f.float(), f.float(), f.int(), f.float()
			t.RSSIdBm, t.PhaseRad, t.DriftHz = f.floatMap(), f.floatMap(), f.floatMap()
			t.Outcomes = f.outcomes()
			if k := f.size(); k >= 0 {
				t.PerProtocol = map[string]OutcomeCounts{}
				for j := 0; j < k; j++ {
					t.PerProtocol[f.str()] = f.outcomes()
				}
			}
			t.TagBits, t.TagKbps, t.EnergyRounds = f.int(), f.float(), f.int()
		}
	}
	if n := f.size(); n >= 0 {
		r.PerProtocol = make([]ProtocolTotals, n)
		for i := range r.PerProtocol {
			p := &r.PerProtocol[i]
			p.Name, p.Packets, p.Outcomes, p.TagBits, p.TagKbps = f.str(), f.int(), f.outcomes(), f.int(), f.float()
		}
	}
	r.Outcomes = f.outcomes()
	r.FleetTagKbps, r.MeanTagKbps, r.Fairness = f.float(), f.float(), f.float()
	r.Buckets = f.floats()
	r.Cache = CacheStats{f.int(), f.int(), int64(f.uint64()), int64(f.uint64()), int64(f.uint64()), int64(f.uint64())}
	r.PhaseAware = f.byte()&1 == 1
	if f.byte()&1 == 1 {
		r.Baseline = f.str()
	}
	return r
}

// FuzzResultAppendJSON builds arbitrary Results — special and raw-bit
// floats, arbitrary strings, unknown map keys, nil and empty
// collections — and requires AppendJSON to agree with json.Marshal on
// the bytes and on whether encoding fails.
func FuzzResultAppendJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x02\x10\x20\x30\x04\x05\x02\x03\x01\x02"))
	f.Add([]byte("\x40\x40\x40\x40\x40\x40\x03\x41\x30\x31\x32\x33\x34\x85<a>&\xff\x03\x04\x05\x01\x87\xfe\xc3\x28\"\\\x01\x00"))
	f.Add(bytes.Repeat([]byte{0x9c, 0x02, 0x1f, 0x85, 0x41}, 40))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x07, 0x12}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := (&fuzzReader{data}).result()
		checkAppendJSON(t, r)
	})
}

// jsonBenchResult is the fixed 36-tag result BenchmarkResultJSON
// encodes: an office floor with two receivers and a 1 s span.
func jsonBenchResult(b *testing.B) *Result {
	sc, err := excite.FindScenario("office")
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(Config{
		Sources:   sc.Sources,
		Tags:      PlaceGrid(36, 18, 18),
		Receivers: PlaceReceivers(2, 18, 18),
		Span:      time.Second,
		Seed:      1,
		Obs:       obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var jsonBenchSink []byte

// BenchmarkResultJSON is the marshal rung of the serve ladder: the
// reflection encoder against AppendJSON into a reused buffer, on the
// same result.
func BenchmarkResultJSON(b *testing.B) {
	res := jsonBenchResult(b)
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := json.Marshal(res)
			if err != nil {
				b.Fatal(err)
			}
			jsonBenchSink = blob
		}
		b.SetBytes(int64(len(jsonBenchSink)))
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = res.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		jsonBenchSink = buf
		b.SetBytes(int64(len(buf)))
	})
}
