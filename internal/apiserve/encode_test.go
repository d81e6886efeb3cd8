package apiserve

// The hand encoder and the pooled compressor must not change a byte on the
// wire: assessment pages are pinned against encoding/json over the
// reference wire type (Item), pooled gzip against a fresh writer.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
)

// fuzzAssessments builds a page of assessments from fuzz inputs. flags
// picks the shape:
//
//	bits 0-1  item count (0-3)
//	bit 2     dimension scores (else a nil map)
//	bit 3     attribute scores (else an empty map)
//	bit 4     raw values for every other catalogue measure
//	bit 5     normalized values for every catalogue measure
//	bit 6     extras outside the key orders: measures sorting before and
//	          after the catalogue, a Dimension and an Attribute outside
//	          the enums
//	bit 7     the contributor catalogue instead of the source one
//	bit 8     a distinct name per item
func fuzzAssessments(name string, x, y float64, flags uint16) ([]*quality.Assessment, []named[string]) {
	order := sourceMeasureOrder
	if flags&(1<<7) != 0 {
		order = contributorMeasureOrder
	}
	as := make([]*quality.Assessment, flags&3)
	for i := range as {
		a := &quality.Assessment{ID: i*7 - 3, Name: name, Score: x, AttributeScores: map[quality.Attribute]float64{}}
		if flags&(1<<8) != 0 {
			a.Name = name + strconv.Itoa(i)
		}
		vals := []float64{x, y, -x, x * y, y / 3, 0}
		if flags&(1<<2) != 0 {
			a.DimensionScores = map[quality.Dimension]float64{}
			for j, d := range quality.Dimensions() {
				a.DimensionScores[d] = vals[(i+j)%len(vals)]
			}
		}
		if flags&(1<<3) != 0 {
			for j, at := range quality.ContributorAttributes() {
				a.AttributeScores[at] = vals[(i+j+1)%len(vals)]
			}
		}
		if flags&(1<<4) != 0 {
			a.Raw = map[string]float64{}
			for j := i % 2; j < len(order); j += 2 {
				a.Raw[order[j].key] = vals[j%len(vals)]
			}
		}
		if flags&(1<<5) != 0 {
			a.Normalized = map[string]float64{}
			for j, m := range order {
				a.Normalized[m.key] = vals[(j+2)%len(vals)]
			}
		}
		if flags&(1<<6) != 0 {
			if a.Raw == nil {
				a.Raw = map[string]float64{}
			}
			a.Raw["aaa.extra"], a.Raw["zzz.extra"] = y, x
			if a.DimensionScores == nil {
				a.DimensionScores = map[quality.Dimension]float64{}
			}
			a.DimensionScores[quality.Dimension(9)] = y
			a.AttributeScores[quality.Attribute(7)] = x
		}
		as[i] = a
	}
	return as, order
}

// FuzzEncodeAssessmentPage pins the hand encoder to encoding/json: for
// any page, the bytes equal json.Marshal(NewEnvelope(...,
// AssessmentItems(...))), and a value json.Marshal refuses (NaN, ±Inf)
// fails both with the same error.
func FuzzEncodeAssessmentPage(f *testing.F) {
	f.Add("src-1", "", 0.5, 0.25, uint16(0x03f))
	f.Add("a<b>&c", "tok", 1e-6, 9.999999e-7, uint16(0x17f))
	f.Add("ctl\x00\x1f\t\n\"\\", "", 1e21, 9.99999e20, uint16(0x0ff))
	f.Add("bad\xff\xfeutf8    ünï", "n<xt", math.Copysign(0, -1), 5e-324, uint16(0x13b))
	f.Add("", "", 0.0, 1e-7, uint16(0x000))
	f.Add("empty", "c", 0.3, 0.7, uint16(0x001))
	f.Add("nan", "", math.NaN(), 0.5, uint16(0x03f))
	f.Add("inf", "", 0.5, math.Inf(1), uint16(0x07f))
	f.Add("-inf", "", 0.5, math.Inf(-1), uint16(0x0c6))
	f.Fuzz(func(t *testing.T, name, next string, x, y float64, flags uint16) {
		as, order := fuzzAssessments(name, x, y, flags)
		snapshot, total, start := int64(flags)-7, int(flags>>4), int(flags%13)
		want, wantErr := json.Marshal(NewEnvelope(snapshot, total, start, next, AssessmentItems(as)))
		got, gotErr := assessmentPage{as, order}.appendEnvelope(nil, snapshot, total, start, next)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("errors differ: encoding/json %v, hand encoder %v", wantErr, gotErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hand encoder differs from encoding/json:\n got  %s\n want %s", got, want)
		}
	})
}

// TestGzipPoolMatchesFreshWriter pins pooled compression to a fresh
// writer's bytes, including for a small body compressed by a writer that
// just compressed a larger one (Reset must leave no state behind).
func TestGzipPoolMatchesFreshWriter(t *testing.T) {
	fresh := func(body []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(body)
		zw.Close()
		return buf.Bytes()
	}
	large := []byte(strings.Repeat(`{"id":17,"name":"src-17","score":0.4375},`, 4000))
	for _, body := range [][]byte{large, []byte(`{"api_version":"v1","items":[]}`), large[:700], nil} {
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(&bytes.Buffer{})
		zw.Write(large)
		zw.Close()
		gzipWriters.Put(zw)
		if got, want := gzipBytes(body), fresh(body); !bytes.Equal(got, want) {
			t.Fatalf("pooled gzip of %d bytes differs from a fresh writer's", len(body))
		}
	}
}
