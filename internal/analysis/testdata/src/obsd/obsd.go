// Package obsd is golden-test input for bounded metric cardinality:
// names reaching an obs.Registry registration must be compile-time
// constants, and so must the keys and values of an obs.Labels literal —
// a run-time label value goes through a Vec.
package obsd

import (
	"fmt"

	"firestore/internal/keyviz"
	"firestore/internal/obs"
)

const reqCounter = "fslint_requests_total"

func direct(r *obs.Registry, db string) {
	r.Counter(reqCounter, obs.Labels{"kind": "fixed"}).Add(1)
	r.Counter("fslint_literal_total", nil).Add(1)
	r.Counter(fmt.Sprintf("req_%s_total", db), nil).Add(1) // want `metric name must be a compile-time constant`
}

// A constant name with a variable label VALUE is a Vec, declared once.
func viaVec(r *obs.Registry, db, key string) {
	r.CounterVec(reqCounter, "db").With(db).Add(1)
	r.HistogramVec("fslint_latency", "db", "code").With(db, "OK")
	r.GaugeVec(db+"_depth", "db")           // want `metric name must be a compile-time constant`
	r.CounterVec("fslint_keyed_total", key) // want `metric name must be a compile-time constant`
}

func badLabels(r *obs.Registry, k, db string) {
	r.Gauge("fslint_gauge", obs.Labels{k: "v"}).Set(1)       // want `obs.Labels key must be a compile-time constant`
	r.Counter(reqCounter, obs.Labels{"db": db}).Add(1)       // want `obs.Labels value must be a compile-time constant`
	_ = obs.Labels{"peer": "p" + db, "method": "engine.get"} // want `obs.Labels value must be a compile-time constant`
}

// Keyviz instrumentation points follow the same discipline: the event
// site on the keyspace timeline is a fixed constant, never formatted
// per request.
func recordEvents(kv *keyviz.Collector, db string) {
	kv.Record(keyviz.EvSplit, keyviz.Event{Detail: db})
	kv.Record("fslint.custom_site", keyviz.Event{})
	kv.Record(fmt.Sprintf("shed.%s", db), keyviz.Event{}) // want `metric name must be a compile-time constant`
}
