package firestore

import (
	"fmt"
	"time"

	"firestore/internal/doc"
	"firestore/internal/status"
)

// GeoPoint is a latitude/longitude pair in the public API.
type GeoPoint struct {
	Lat, Lng float64
}

// Ref names another document as a field value.
type Ref string

// toFields converts a Go map to document fields.
func toFields(data map[string]any) (map[string]doc.Value, error) {
	if data == nil {
		return map[string]doc.Value{}, nil
	}
	out := make(map[string]doc.Value, len(data))
	for k, v := range data {
		dv, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		out[k] = dv
	}
	return out, nil
}

// toValue converts a Go value to a Firestore value. Supported types:
// nil, bool, int, int32, int64, float32, float64, string, []byte,
// time.Time, GeoPoint, Ref, []any, and map[string]any.
func toValue(v any) (doc.Value, error) {
	switch x := v.(type) {
	case nil:
		return doc.Null(), nil
	case bool:
		return doc.Bool(x), nil
	case int:
		return doc.Int(int64(x)), nil
	case int32:
		return doc.Int(int64(x)), nil
	case int64:
		return doc.Int(x), nil
	case float32:
		return doc.Double(float64(x)), nil
	case float64:
		return doc.Double(x), nil
	case string:
		return doc.String(x), nil
	case []byte:
		return doc.Bytes(x), nil
	case time.Time:
		if y := x.UTC().Year(); y < 1 || y > 9999 {
			return doc.Null(), status.Errorf(status.InvalidArgument, "firestore", "timestamp year %d outside 0001-9999", y)
		}
		return doc.Timestamp(x), nil
	case GeoPoint:
		return doc.Geo(x.Lat, x.Lng), nil
	case Ref:
		return doc.Reference(string(x)), nil
	case []any:
		arr := make([]doc.Value, len(x))
		for i, e := range x {
			ev, err := toValue(e)
			if err != nil {
				return doc.Null(), fmt.Errorf("[%d]: %w", i, err)
			}
			arr[i] = ev
		}
		return doc.Array(arr...), nil
	case map[string]any:
		m := make(map[string]doc.Value, len(x))
		for k, e := range x {
			ev, err := toValue(e)
			if err != nil {
				return doc.Null(), fmt.Errorf("%q: %w", k, err)
			}
			m[k] = ev
		}
		return doc.Map(m), nil
	case doc.Value:
		return x, nil
	default:
		return doc.Null(), status.Errorf(status.InvalidArgument, "firestore", "unsupported value type %T", v)
	}
}

// fromValue converts a Firestore value back to a Go value.
func fromValue(v doc.Value) any {
	switch v.Kind() {
	case doc.KindNull:
		return nil
	case doc.KindBool:
		return v.BoolVal()
	case doc.KindNumber:
		if v.IsInt() {
			return v.IntVal()
		}
		return v.DoubleVal()
	case doc.KindTimestamp:
		return v.TimeVal()
	case doc.KindString:
		return v.StringVal()
	case doc.KindBytes:
		return v.BytesVal()
	case doc.KindReference:
		return Ref(v.RefVal())
	case doc.KindGeoPoint:
		g := v.GeoVal()
		return GeoPoint{Lat: g.Lat, Lng: g.Lng}
	case doc.KindArray:
		arr := v.ArrayVal()
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = fromValue(e)
		}
		return out
	case doc.KindMap:
		m := v.MapVal()
		out := make(map[string]any, len(m))
		for k, e := range m {
			out[k] = fromValue(e)
		}
		return out
	}
	return nil
}

func fromFields(fields map[string]doc.Value) map[string]any {
	out := make(map[string]any, len(fields))
	for k, v := range fields {
		out[k] = fromValue(v)
	}
	return out
}
