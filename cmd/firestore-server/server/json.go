package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"firestore/internal/doc"
)

// JSON <-> document value mapping. JSON has fewer types than the data
// model, so the extras use tagged single-key objects:
//
//	{"$bytes": "<base64>"}   bytes
//	{"$time": "<RFC3339>"}   timestamp
//	{"$ref": "/a/b"}         document reference
//	{"$geo": [lat, lng]}     geopoint
//
// A JSON number is an Int when it is an integer literal (one past the
// 64-bit range is refused) and a Double otherwise, so 1.0 and 1e3 are
// Doubles. A Double is written back with a fraction or an exponent, so
// it reads back as a Double.

// decodeJSON decodes the one JSON value r holds into v, keeping numbers
// as json.Number so valueFromJSON sees their literals. Anything but
// whitespace after the value is an error.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the JSON value")
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
				return doc.Null(), fmt.Errorf("integer %s is outside the 64-bit range", x)
			}
			return doc.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return doc.Null(), fmt.Errorf("number %s is outside the double range", x)
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
			if tagged, ok := taggedValue(x); ok {
				return tagged, nil
			}
		}
		m := make(map[string]doc.Value, len(x))
		for k, e := range x {
			ev, err := valueFromJSON(e)
			if err != nil {
				return doc.Null(), err
			}
			m[k] = ev
		}
		return doc.Map(m), nil
	}
	return doc.Null(), fmt.Errorf("unsupported JSON value %T", v)
}

func taggedValue(m map[string]any) (doc.Value, bool) {
	if raw, ok := m["$bytes"]; ok {
		if s, ok := raw.(string); ok {
			b, err := base64.StdEncoding.DecodeString(s)
			if err == nil {
				return doc.Bytes(b), true
			}
		}
	}
	if raw, ok := m["$time"]; ok {
		if s, ok := raw.(string); ok {
			t, err := time.Parse(time.RFC3339Nano, s)
			if err == nil {
				return doc.Timestamp(t), true
			}
		}
	}
	if raw, ok := m["$ref"]; ok {
		if s, ok := raw.(string); ok {
			return doc.Reference(s), true
		}
	}
	if raw, ok := m["$geo"]; ok {
		if arr, ok := raw.([]any); ok && len(arr) == 2 {
			lat, ok1 := arr[0].(json.Number)
			lng, ok2 := arr[1].(json.Number)
			if ok1 && ok2 {
				latF, err1 := lat.Float64()
				lngF, err2 := lng.Float64()
				if err1 == nil && err2 == nil {
					return doc.Geo(latF, lngF), true
				}
			}
		}
	}
	return doc.Null(), false
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
		return map[string]any{"$geo": []any{g.Lat, g.Lng}}
	case doc.KindArray:
		arr := v.ArrayVal()
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = valueToJSON(e)
		}
		return out
	case doc.KindMap:
		m := v.MapVal()
		out := make(map[string]any, len(m))
		for k, e := range m {
			out[k] = valueToJSON(e)
		}
		return out
	}
	return nil
}

func fieldsToJSON(fields map[string]doc.Value) map[string]any {
	out := make(map[string]any, len(fields))
	for k, v := range fields {
		out[k] = valueToJSON(v)
	}
	return out
}
