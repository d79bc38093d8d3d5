// Package repro is a from-scratch Go reproduction of "Firestore: The
// NoSQL Serverless Database for the Application Developer" (ICDE 2023).
//
// The public API lives in the firestore (Server SDK) and mobile
// (Mobile/Web SDK) packages; the service itself is assembled by
// internal/core on top of a Spanner-like storage substrate
// (internal/spanner), the Real-time Cache (internal/rtcache), the query
// engine (internal/query), security rules (internal/rules), and the rest
// of the subsystems inventoried in DESIGN.md.
//
// go test ./internal/bench regenerates the tables and figures of the
// paper's evaluation as text tables and checks the paper's claims on them
// (EXPERIMENTS.md records paper-vs-measured results); benchmark/ is the
// repo's own performance record (BENCHMARK.json, go run ./benchmark).
package repro
