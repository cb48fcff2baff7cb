package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// ErrNonFinite reports a NaN or ±Inf in a Result. JSON cannot carry
// either, so AppendJSON refuses the result, as json.Marshal does; the
// wrapping error names the field path, e.g. "tags[3].rssi_dbm.BLE".
var ErrNonFinite = errors.New("fleet: non-finite result value")

// nonFiniteError is the error AppendJSON returns for a NaN or ±Inf. The
// path is built from the leaf outwards as the error unwinds, so the
// success path never formats one.
type nonFiniteError struct {
	path string
	v    float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf("%v: %s = %v", ErrNonFinite, e.path, e.v)
}

func (e *nonFiniteError) Unwrap() error { return ErrNonFinite }

// within prefixes a non-finite error's path with the enclosing field.
func within(prefix string, err error) error {
	var nf *nonFiniteError
	if errors.As(err, &nf) {
		nf.path = prefix + nf.path
	}
	return err
}

// outcomeKeys and protocolKeys list the keys of OutcomeCounts and of the
// protocol-keyed maps in name order, the order encoding/json writes map
// keys in, each with its encoded `"name":` prefix. A map holding any
// other key is left to encoding/json.
var (
	outcomeKeys  []outcomeKey
	protocolKeys []protocolKey
)

type outcomeKey struct {
	o         sim.Outcome
	name, key string
}

type protocolKey struct{ name, key string }

func init() {
	for _, o := range outcomesOrder {
		outcomeKeys = append(outcomeKeys, outcomeKey{o, o.String(), `"` + o.String() + `":`})
	}
	sort.Slice(outcomeKeys, func(i, j int) bool { return outcomeKeys[i].name < outcomeKeys[j].name })
	for _, p := range radio.Protocols {
		protocolKeys = append(protocolKeys, protocolKey{p.String(), `"` + p.String() + `":`})
	}
	sort.Slice(protocolKeys, func(i, j int) bool { return protocolKeys[i].name < protocolKeys[j].name })
}

// AppendJSON appends the JSON encoding of r to b and returns the
// extended buffer. The bytes are exactly those of json.Marshal(r), which
// stays the schema of record: fields in declaration order under the same
// omitempty rules, map keys sorted, floats formatted as encoding/json
// formats them. Map keys outside the outcome and protocol name tables
// and strings that need escaping are handed to encoding/json, so every
// Result encodes identically, not only engine outputs. A NaN or ±Inf
// anywhere is an error wrapping ErrNonFinite, and b is returned
// unextended.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	out, err := r.appendJSON(b)
	if err != nil {
		return b, err
	}
	return out, nil
}

func (r *Result) appendJSON(b []byte) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = strconv.AppendInt(append(b, `{"span_ns":`...), int64(r.Span), 10)
	b = strconv.AppendInt(append(b, `,"bucket_ns":`...), int64(r.BucketDur), 10)
	b = strconv.AppendInt(append(b, `,"events":`...), int64(r.Events), 10)
	b = strconv.AppendInt(append(b, `,"excite_collided":`...), int64(r.ExciteCollided), 10)
	b = strconv.AppendInt(append(b, `,"num_tags":`...), int64(r.NumTags), 10)
	b = strconv.AppendInt(append(b, `,"num_receivers":`...), int64(r.NumReceivers), 10)
	b = append(b, `,"tags":`...)
	if r.Tags == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Tags {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = r.Tags[i].appendJSON(b); err != nil {
				return b, within("tags["+strconv.Itoa(i)+"].", err)
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"per_protocol":`...)
	if r.PerProtocol == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.PerProtocol {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = r.PerProtocol[i].appendJSON(b); err != nil {
				return b, within("per_protocol["+strconv.Itoa(i)+"].", err)
			}
		}
		b = append(b, ']')
	}
	b = appendOutcomes(append(b, `,"outcomes":`...), r.Outcomes)
	if b, err = appendFloat(append(b, `,"fleet_tag_kbps":`...), "fleet_tag_kbps", r.FleetTagKbps); err != nil {
		return b, err
	}
	if b, err = appendFloat(append(b, `,"mean_tag_kbps":`...), "mean_tag_kbps", r.MeanTagKbps); err != nil {
		return b, err
	}
	if b, err = appendFloat(append(b, `,"fairness":`...), "fairness", r.Fairness); err != nil {
		return b, err
	}
	b = append(b, `,"buckets_kbps":`...)
	if r.Buckets == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range r.Buckets {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, "", v); err != nil {
				return b, within("buckets_kbps["+strconv.Itoa(i)+"]", err)
			}
		}
		b = append(b, ']')
	}
	c := &r.Cache
	b = strconv.AppendInt(append(b, `,"cache":{"entries":`...), int64(c.Entries), 10)
	b = strconv.AppendInt(append(b, `,"bits_entries":`...), int64(c.BitsEntries), 10)
	b = strconv.AppendInt(append(b, `,"link_lookups":`...), c.LinkLookups, 10)
	b = strconv.AppendInt(append(b, `,"link_misses":`...), c.LinkMisses, 10)
	b = strconv.AppendInt(append(b, `,"bits_lookups":`...), c.BitsLookups, 10)
	b = strconv.AppendInt(append(b, `,"bits_misses":`...), c.BitsMisses, 10)
	b = append(b, '}')
	if r.PhaseAware {
		b = append(b, `,"phase_aware":true`...)
	}
	if r.Baseline != "" {
		b = appendString(append(b, `,"baseline":`...), r.Baseline)
	}
	return append(b, '}'), nil
}

func (t *TagResult) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = strconv.AppendInt(append(b, `{"id":`...), int64(t.ID), 10)
	if b, err = appendFloat(append(b, `,"x":`...), "x", t.X); err != nil {
		return b, err
	}
	if b, err = appendFloat(append(b, `,"y":`...), "y", t.Y); err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `,"receiver":`...), int64(t.Receiver), 10)
	if b, err = appendFloat(append(b, `,"distance_m":`...), "distance_m", t.DistanceM); err != nil {
		return b, err
	}
	if b, err = appendFloatMap(append(b, `,"rssi_dbm":`...), t.RSSIdBm); err != nil {
		return b, within("rssi_dbm.", err)
	}
	if len(t.PhaseRad) > 0 {
		if b, err = appendFloatMap(append(b, `,"phase_rad":`...), t.PhaseRad); err != nil {
			return b, within("phase_rad.", err)
		}
	}
	if len(t.DriftHz) > 0 {
		if b, err = appendFloatMap(append(b, `,"drift_hz":`...), t.DriftHz); err != nil {
			return b, within("drift_hz.", err)
		}
	}
	b = appendOutcomes(append(b, `,"outcomes":`...), t.Outcomes)
	if len(t.PerProtocol) > 0 {
		b = appendProtocolOutcomes(append(b, `,"per_protocol":`...), t.PerProtocol)
	}
	b = strconv.AppendInt(append(b, `,"tag_bits":`...), int64(t.TagBits), 10)
	if b, err = appendFloat(append(b, `,"tag_kbps":`...), "tag_kbps", t.TagKbps); err != nil {
		return b, err
	}
	if t.EnergyRounds != 0 {
		b = strconv.AppendInt(append(b, `,"energy_rounds":`...), int64(t.EnergyRounds), 10)
	}
	return append(b, '}'), nil
}

func (p *ProtocolTotals) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = appendString(append(b, `{"protocol":`...), p.Name)
	b = strconv.AppendInt(append(b, `,"packets":`...), int64(p.Packets), 10)
	b = appendOutcomes(append(b, `,"outcomes":`...), p.Outcomes)
	b = strconv.AppendInt(append(b, `,"tag_bits":`...), int64(p.TagBits), 10)
	if b, err = appendFloat(append(b, `,"tag_kbps":`...), "tag_kbps", p.TagKbps); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendFloat appends f formatted as encoding/json formats a float64:
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with the
// exponent's leading zero dropped. path names f in the error for NaN
// and ±Inf.
func appendFloat(b []byte, path string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &nonFiniteError{path: path, v: f}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendFloatMap appends a protocol-keyed float map.
func appendFloatMap(b []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	start := len(b)
	b = append(b, '{')
	n := 0
	for _, k := range protocolKeys {
		v, ok := m[k.name]
		if !ok {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(append(b, k.key...), k.name, v); err != nil {
			return b, err
		}
		n++
	}
	if n == len(m) {
		return append(b, '}'), nil
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, &nonFiniteError{path: k, v: v}
		}
	}
	return appendMarshal(b[:start], m), nil
}

// appendOutcomes appends an outcome histogram as OutcomeCounts.MarshalJSON
// renders it; a nil histogram is {}.
func appendOutcomes(b []byte, o OutcomeCounts) []byte {
	start := len(b)
	b = append(b, '{')
	n := 0
	for _, k := range outcomeKeys {
		v, ok := o[k.o]
		if !ok {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, k.key...), int64(v), 10)
		n++
	}
	if n != len(o) {
		return appendMarshal(b[:start], o)
	}
	return append(b, '}')
}

// appendProtocolOutcomes appends a protocol-keyed map of histograms.
func appendProtocolOutcomes(b []byte, m map[string]OutcomeCounts) []byte {
	start := len(b)
	b = append(b, '{')
	n := 0
	for _, k := range protocolKeys {
		o, ok := m[k.name]
		if !ok {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = appendOutcomes(append(b, k.key...), o)
		n++
	}
	if n != len(m) {
		return appendMarshal(b[:start], m)
	}
	return append(b, '}')
}

// appendString appends s quoted. Printable ASCII that needs no escape
// is copied; anything else is left to encoding/json, which escapes
// <, > and &, control characters, U+2028/U+2029 and invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshal appends encoding/json's encoding of v, for the values
// the fast path leaves to it. Callers pass only strings, integer
// histograms and finite float maps, none of which json.Marshal rejects.
func appendMarshal(b []byte, v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fleet: encoding/json rejected a checked value: %v", err))
	}
	return append(b, blob...)
}
