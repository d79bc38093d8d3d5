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
	"firestore/internal/status"
)

// JSON <-> document value mapping. JSON has fewer types than the data
// model, so the extras use tagged single-key objects:
//
//	{"$bytes": "<base64>"}   bytes
//	{"$time": "<RFC3339>"}   timestamp
//	{"$ref": "/a/b"}         document reference
//	{"$geo": [lat, lng]}     geopoint
//
// A one-key object whose key is one of these tags must hold its type:
// {"$time": "yesterday"} is refused, not stored as a map.
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
// not one of the four tags; a tag that does not hold its type is an
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
			lat, ok1 := arr[0].(json.Number)
			lng, ok2 := arr[1].(json.Number)
			latF, err1 := lat.Float64()
			lngF, err2 := lng.Float64()
			if ok1 && ok2 && err1 == nil && err2 == nil {
				return doc.Geo(latF, lngF), true, nil
			}
		}
	default:
		return doc.Null(), false, nil
	}
	return doc.Null(), true, status.Errorf(status.InvalidArgument, "server", "%s does not hold its type: %v", tag, raw)
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
		return fieldsToJSON(v.MapVal())
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
