package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"firestore/internal/doc"
	"firestore/internal/status"
)

// JSON <-> document value mapping. JSON has fewer types than the data
// model, so the extras use tagged single-key objects:
//
//	{"$bytes": "<base64>"}   bytes
//	{"$time": "<RFC3339>"}   timestamp
//	{"$ref": "/a/b"}         document reference
//	{"$geo": [lat, lng]}     geopoint
//	{"$double": "NaN"}       NaN, "Infinity" or "-Infinity"
//	{"$map": {"$ref": 1}}    a map whose one key is a tag
//
// A one-key object whose key is one of these tags must hold its type:
// {"$time": "yesterday"} is refused, not stored as a map. JSON has no
// number for NaN or an infinity, so a double is tagged $double only then,
// with the proto3 JSON mapping's string, and a geopoint coordinate takes
// the same string in place of its number.
//
// A JSON number is an Int when it is an integer literal (one past the
// 64-bit range is refused) and a Double otherwise, so 1.0 and 1e3 are
// Doubles. A Double is written back with a fraction or an exponent, so
// it reads back as a Double.

// decodeJSON decodes the one JSON value r holds into v, keeping numbers
// as json.Number so valueFromJSON sees their literals. Anything but
// whitespace after the value is an error. Every error this file returns
// is InvalidArgument: the request is malformed.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return status.Wrap(status.InvalidArgument, "server", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return status.New(status.InvalidArgument, "server", "unexpected data after the JSON value")
	}
	return nil
}

func valueFromJSON(v any) (doc.Value, error) {
	switch x := v.(type) {
	case nil:
		return doc.Null(), nil
	case bool:
		return doc.Bool(x), nil
	case string:
		return doc.String(x), nil
	case json.Number:
		if !strings.ContainsAny(string(x), ".eE") {
			i, err := strconv.ParseInt(string(x), 10, 64)
			if err != nil {
				return doc.Null(), status.Errorf(status.InvalidArgument, "server", "integer %s is outside the 64-bit range", x)
			}
			return doc.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return doc.Null(), status.Errorf(status.InvalidArgument, "server", "number %s is outside the double range", x)
		}
		return doc.Double(f), nil
	case []any:
		arr := make([]doc.Value, len(x))
		for i, e := range x {
			ev, err := valueFromJSON(e)
			if err != nil {
				return doc.Null(), err
			}
			arr[i] = ev
		}
		return doc.Array(arr...), nil
	case map[string]any:
		if len(x) == 1 {
			for tag, raw := range x {
				if v, ok, err := taggedValue(tag, raw); ok {
					return v, err
				}
			}
		}
		m, err := fieldsFromJSON(x)
		return doc.Map(m), err
	}
	return doc.Null(), status.Errorf(status.InvalidArgument, "server", "unsupported JSON value %T", v)
}

// taggedValue decodes raw as the type tag names. ok is false when tag is
// not one of the six tags; a tag that does not hold its type is an
// error.
func taggedValue(tag string, raw any) (v doc.Value, ok bool, err error) {
	s, isString := raw.(string)
	switch tag {
	case "$bytes":
		if b, err := base64.StdEncoding.DecodeString(s); isString && err == nil {
			return doc.Bytes(b), true, nil
		}
	case "$time":
		if t, err := time.Parse(time.RFC3339Nano, s); isString && err == nil {
			return doc.Timestamp(t), true, nil
		}
	case "$ref":
		if isString {
			return doc.Reference(s), true, nil
		}
	case "$geo":
		if arr, isArray := raw.([]any); isArray && len(arr) == 2 {
			lat, ok1 := coordinate(arr[0])
			lng, ok2 := coordinate(arr[1])
			if ok1 && ok2 {
				return doc.Geo(lat, lng), true, nil
			}
		}
	case "$double":
		if f, ok := parseNonFinite(raw); ok {
			return doc.Double(f), true, nil
		}
	case "$map":
		if m, isMap := raw.(map[string]any); isMap {
			fields, err := fieldsFromJSON(m)
			return doc.Map(fields), true, err
		}
	default:
		return doc.Null(), false, nil
	}
	return doc.Null(), true, status.Errorf(status.InvalidArgument, "server", "%s does not hold its type: %v", tag, raw)
}

// coordinate reads a $geo coordinate: a JSON number, or the string of a
// double JSON has no number for.
func coordinate(raw any) (float64, bool) {
	if n, ok := raw.(json.Number); ok {
		f, err := n.Float64()
		return f, err == nil
	}
	return parseNonFinite(raw)
}

// nonFinite is the proto3 JSON mapping's string for a double JSON has no
// number for, and "" for any other.
func nonFinite(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	}
	return ""
}

// parseNonFinite reads a string nonFinite returns, and nothing else.
func parseNonFinite(raw any) (float64, bool) {
	s, _ := raw.(string)
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && nonFinite(f) == s
}

func fieldsFromJSON(raw map[string]any) (map[string]doc.Value, error) {
	out := make(map[string]doc.Value, len(raw))
	for k, v := range raw {
		dv, err := valueFromJSON(v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		out[k] = dv
	}
	return out, nil
}

func valueToJSON(v doc.Value) any {
	switch v.Kind() {
	case doc.KindNull:
		return nil
	case doc.KindBool:
		return v.BoolVal()
	case doc.KindNumber:
		if v.IsInt() {
			return v.IntVal()
		}
		if s := nonFinite(v.DoubleVal()); s != "" {
			return map[string]any{"$double": s}
		}
		s := strconv.FormatFloat(v.DoubleVal(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return json.Number(s)
	case doc.KindString:
		return v.StringVal()
	case doc.KindBytes:
		return map[string]any{"$bytes": base64.StdEncoding.EncodeToString(v.BytesVal())}
	case doc.KindTimestamp:
		return map[string]any{"$time": v.TimeVal().Format(time.RFC3339Nano)}
	case doc.KindReference:
		return map[string]any{"$ref": v.RefVal()}
	case doc.KindGeoPoint:
		g := v.GeoVal()
		return map[string]any{"$geo": []any{geoCoordinate(g.Lat), geoCoordinate(g.Lng)}}
	case doc.KindArray:
		arr := v.ArrayVal()
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = valueToJSON(e)
		}
		return out
	case doc.KindMap:
		m := fieldsToJSON(v.MapVal())
		if len(m) == 1 {
			for k := range m {
				if _, isTag, _ := taggedValue(k, nil); isTag {
					return map[string]any{"$map": m}
				}
			}
		}
		return m
	}
	return nil
}

// geoCoordinate is f's form in a $geo array, which coordinate reads.
func geoCoordinate(f float64) any {
	if s := nonFinite(f); s != "" {
		return s
	}
	return f
}

func fieldsToJSON(fields map[string]doc.Value) map[string]any {
	out := make(map[string]any, len(fields))
	for k, v := range fields {
		out[k] = valueToJSON(v)
	}
	return out
}
