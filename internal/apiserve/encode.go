package apiserve

// The hand-written encoder of assessment pages (/api/v1/sources and
// /api/v1/contributors), DESIGN.md section 7. It appends the envelope and
// its items straight from []*quality.Assessment, byte for byte what
// json.Marshal(NewEnvelope(..., AssessmentItems(...))) produces, without
// building the per-item maps or sorting every map's keys: map keys are
// written in an order sorted once per catalogue. FuzzEncodeAssessmentPage
// pins the identity.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/informing-observers/informer/internal/quality"
)

// named pairs a map key with the string encoding/json writes for it.
type named[K comparable] struct {
	key  K
	name string
}

// sortedNames returns keys deduplicated and ordered by name, the order
// encoding/json writes map keys in.
func sortedNames[K comparable](keys []K, name func(K) string) []named[K] {
	out := make([]named[K], 0, len(keys))
	for _, k := range keys {
		if !slices.ContainsFunc(out, func(n named[K]) bool { return n.key == k }) {
			out = append(out, named[K]{k, name(k)})
		}
	}
	slices.SortFunc(out, func(a, b named[K]) int { return strings.Compare(a.name, b.name) })
	return out
}

// measureOrder is a catalogue's measure IDs in name order.
func measureOrder[M any](ms []M, id func(M) string) []named[string] {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = id(m)
	}
	return sortedNames(ids, func(id string) string { return id })
}

// The key orders of the item maps, computed once.
var (
	dimensionOrder = sortedNames(quality.Dimensions(), quality.Dimension.String)
	attributeOrder = sortedNames(append(quality.SourceAttributes(), quality.ContributorAttributes()...), quality.Attribute.String)

	sourceMeasureOrder      = measureOrder(quality.SourceMeasures(), func(m quality.SourceMeasure) string { return m.ID })
	contributorMeasureOrder = measureOrder(quality.ContributorMeasures(), func(m quality.ContributorMeasure) string { return m.ID })
)

// assessmentPage is the item payload of an assessment endpoint: the
// page's assessments and the measure-key order of their catalogue.
type assessmentPage struct {
	items    []*quality.Assessment
	measures []named[string]
}

// appendEnvelope appends the page's envelope. It fails, as json.Marshal
// does and with the same error, on a NaN or infinite score.
func (p assessmentPage) appendEnvelope(b []byte, snapshot int64, total, start int, next string) ([]byte, error) {
	// Room for the whole page up front: a scores-only item takes about
	// 400 bytes, a full one with its two measure maps about 2 KB.
	itemSize := 512
	if len(p.items) > 0 && len(p.items[0].Raw) > 0 {
		itemSize = 2048
	}
	b = slices.Grow(b, 256+len(p.items)*itemSize)
	b = append(b, `{"api_version":"v1","snapshot":`...)
	b = strconv.AppendInt(b, snapshot, 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(start), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(p.items)), 10)
	if next != "" {
		b = append(b, `,"next_cursor":`...)
		b = appendString(b, next)
	}
	b = append(b, `,"items":[`...)
	for i, a := range p.items {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = p.appendItem(b, a); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// appendItem appends one assessment in the Item wire form.
func (p assessmentPage) appendItem(b []byte, a *quality.Assessment) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(a.ID), 10)
	b = append(b, `,"name":`...)
	b = appendString(b, a.Name)
	b = append(b, `,"score":`...)
	b, err := appendFloat(b, a.Score)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"dimensions":`...)
	if b, err = appendMap(b, a.DimensionScores, dimensionOrder); err != nil {
		return nil, err
	}
	b = append(b, `,"attributes":`...)
	if b, err = appendMap(b, a.AttributeScores, attributeOrder); err != nil {
		return nil, err
	}
	if len(a.Raw) > 0 {
		b = append(b, `,"raw":`...)
		if b, err = appendMap(b, a.Raw, p.measures); err != nil {
			return nil, err
		}
	}
	if len(a.Normalized) > 0 {
		b = append(b, `,"normalized":`...)
		if b, err = appendMap(b, a.Normalized, p.measures); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendMap appends a float map as a JSON object with its keys in name
// order. It walks the precomputed order; a map holding a key outside it
// (a measure from ExtraSourceMeasures, a Dimension outside the enum), or
// a value that fails, is written again from its own sorted keys, so the
// failure reported is the first one in wire order.
func appendMap[K comparable](b []byte, m map[K]float64, order []named[K]) ([]byte, error) {
	mark := len(b)
	b = append(b, '{')
	n := 0
	var err error
	for _, o := range order {
		if v, ok := m[o.key]; ok {
			if b, err = appendEntry(b, n, o.name, v); err != nil {
				break
			}
			n++
		}
	}
	if err == nil && n == len(m) {
		return append(b, '}'), nil
	}
	keys := make([]named[K], 0, len(m))
	for k := range m {
		// The wire name: the String form of a dimension or attribute,
		// the ID itself for a measure.
		keys = append(keys, named[K]{k, fmt.Sprint(k)})
	}
	slices.SortFunc(keys, func(x, y named[K]) int { return strings.Compare(x.name, y.name) })
	b = append(b[:mark], '{')
	for i, k := range keys {
		if b, err = appendEntry(b, i, k.name, m[k.key]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendEntry appends the i-th "name":value pair of an object.
func appendEntry(b []byte, i int, name string, v float64) ([]byte, error) {
	if i > 0 {
		b = append(b, ',')
	}
	b = appendString(b, name)
	b = append(b, ':')
	return appendFloat(b, v)
}

// appendFloat appends a float64 as encoding/json does: ES6 number
// formatting ('f', or 'e' below 1e-6 and from 1e21 on, with a one-digit
// negative exponent unpadded), and an UnsupportedValueError for NaN and
// ±Inf (b is then returned unchanged).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Plain printable ASCII without
// quote, backslash or HTML-significant bytes is copied; anything else
// (escapes, <>&, non-ASCII, invalid UTF-8) is left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
