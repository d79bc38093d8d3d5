// Package server implements the HTTP/JSON surface of firestore-server:
// database administration, document CRUD, queries, and server-sent-event
// streaming of real-time snapshots. It exists so the handler is testable
// with net/http/httptest.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/reqctx"
	"firestore/internal/rules"
	"firestore/internal/status"
)

// Server is the HTTP handler.
type Server struct {
	region *core.Region
	mux    *http.ServeMux
	// clusterInfo, when set, feeds /debug/clusterz (the cluster
	// coordinator's peer-table snapshot in multi-process deployments).
	clusterInfo func() cluster.ClusterStatus
}

// SetClusterInfo installs the /debug/clusterz data source — typically
// the cluster coordinator's Snapshot. Without it the endpoint reports
// single-process mode.
func (s *Server) SetClusterInfo(fn func() cluster.ClusterStatus) { s.clusterInfo = fn }

// New builds the handler for a region.
func New(region *core.Region) *Server {
	s := &Server{region: region, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/databases", s.createDatabase)
	s.mux.HandleFunc("POST /v1/databases/{db}/rules", s.setRules)
	s.mux.HandleFunc("POST /v1/databases/{db}/indexes", s.addIndex)
	s.mux.HandleFunc("PUT /v1/databases/{db}/docs/{path...}", s.putDoc)
	s.mux.HandleFunc("GET /v1/databases/{db}/docs/{path...}", s.getDoc)
	s.mux.HandleFunc("DELETE /v1/databases/{db}/docs/{path...}", s.deleteDoc)
	s.mux.HandleFunc("POST /v1/databases/{db}/query", s.runQuery)
	s.mux.HandleFunc("GET /v1/databases/{db}/listen", s.listen)
	return s
}

// DefaultTimeout bounds request handling when the client sets no
// explicit X-Request-Timeout; the streaming listen endpoint is exempt
// (it is a long-lived connection by design).
const DefaultTimeout = 30 * time.Second

// ServeHTTP implements http.Handler. It is the ingress: every request
// gets a request ID (minted unless the client sent X-Request-Id, echoed
// back in the response), a QoS class (X-QoS: batch tags throughput
// traffic), a deadline, and the region's span recorder, all carried in
// the context so every layer below can classify, trace, and shed work
// against them. Non-streaming /v1/ requests run under a root
// "frontend.<op>" span, making the ingress the root of every trace.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/debug/") {
		s.mux.ServeHTTP(w, r)
		return
	}
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = reqctx.NewRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	m := reqctx.Meta{RequestID: rid, DB: dbFromPath(r.URL.Path)}
	if r.Header.Get("X-QoS") == "batch" {
		m.QoS = reqctx.Batch
	}
	ctx := reqctx.With(r.Context(), m)
	if s.region.Recorder != nil {
		ctx = reqctx.WithRecorder(ctx, s.region.Recorder)
	}
	streaming := strings.HasSuffix(r.URL.Path, "/listen")
	if !streaming {
		timeout := DefaultTimeout
		if h := r.Header.Get("X-Request-Timeout"); h != "" {
			if d, err := time.ParseDuration(h); err == nil && d > 0 {
				timeout = d
			}
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		// Root span: the trace lives exactly as long as the request. The
		// streaming listen endpoint is exempt — its trace is rooted by the
		// frontend layer's registration span, not the connection lifetime.
		var end func(error)
		ctx, end = reqctx.StartSpan(ctx, opName(r))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			var err error
			if c := status.CodeFromHTTP(sw.code); c != status.OK {
				err = status.New(c, "server", http.StatusText(sw.code))
			}
			end(err)
		}()
		w = sw
	}
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// opName names the ingress root span by operation class.
func opName(r *http.Request) string {
	switch {
	case strings.Contains(r.URL.Path, "/docs/"):
		switch r.Method {
		case http.MethodPut:
			return "frontend.put"
		case http.MethodDelete:
			return "frontend.delete"
		default:
			return "frontend.get"
		}
	case strings.HasSuffix(r.URL.Path, "/query"):
		return "frontend.query"
	default:
		return "frontend.admin"
	}
}

// statusWriter captures the response status so the ingress span can
// classify the outcome it otherwise only sees as a status line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// dbFromPath extracts the database ID from /v1/databases/{db}/... paths
// before mux routing has populated path values.
func dbFromPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/databases/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// principal derives the caller identity from headers: privileged callers
// set X-Privileged; end users carry "Bearer uid:<user>" tokens (the
// Firebase Authentication stand-in).
func principal(r *http.Request) backend.Principal {
	batch := r.Header.Get("X-QoS") == "batch"
	if r.Header.Get("X-Privileged") == "true" {
		return backend.Principal{Privileged: true, Batch: batch}
	}
	auth := r.Header.Get("Authorization")
	if uid, ok := strings.CutPrefix(auth, "Bearer uid:"); ok && uid != "" {
		return backend.Principal{Auth: &rules.Auth{UID: uid}, Batch: batch}
	}
	return backend.Principal{Batch: batch}
}

// httpError maps any error to its HTTP response purely mechanically:
// the canonical code recovered from the error chain drives the single
// code→HTTP table in internal/status. No sentinel is special-cased here.
func httpError(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), status.HTTPStatus(status.CodeOf(err)))
}

// badRequest reports a handler-local decoding/validation failure,
// classified InvalidArgument like every other malformed input.
func badRequest(w http.ResponseWriter, err error) {
	httpError(w, status.WithCode(status.InvalidArgument, err))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) createDatabase(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, err)
		return
	}
	if _, err := s.region.CreateDatabase(req.ID); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]string{"id": req.ID, "region": s.region.Config.Name})
}

func (s *Server) setRules(w http.ResponseWriter, r *http.Request) {
	var src strings.Builder
	if _, err := jsonSafeCopy(&src, r); err != nil {
		badRequest(w, err)
		return
	}
	if err := s.region.SetRules(r.PathValue("db"), src.String()); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "deployed"})
}

func jsonSafeCopy(dst *strings.Builder, r *http.Request) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := r.Body.Read(buf)
		dst.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
		if n > 1<<20 {
			return n, fmt.Errorf("rules source too large")
		}
	}
}

func (s *Server) addIndex(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Collection string `json:"collection"`
		Fields     []struct {
			Path string `json:"path"`
			Desc bool   `json:"desc"`
		} `json:"fields"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, err)
		return
	}
	fields := make([]index.Field, len(req.Fields))
	for i, f := range req.Fields {
		dir := index.Ascending
		if f.Desc {
			dir = index.Descending
		}
		fields[i] = index.Field{Path: doc.FieldPath(f.Path), Dir: dir}
	}
	def := index.CompositeDef(req.Collection, fields...)
	if err := s.region.AddCompositeIndex(r.Context(), r.PathValue("db"), def); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": def.ID, "status": "ready"})
}

func docName(r *http.Request) (doc.Name, error) {
	return doc.ParseName("/" + r.PathValue("path"))
}

func (s *Server) putDoc(w http.ResponseWriter, r *http.Request) {
	name, err := docName(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	var raw map[string]any
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		badRequest(w, err)
		return
	}
	fields, err := fieldsFromJSON(raw)
	if err != nil {
		badRequest(w, err)
		return
	}
	ts, err := s.region.Commit(r.Context(), r.PathValue("db"), principal(r), []backend.WriteOp{
		{Kind: backend.OpSet, Name: name, Fields: fields},
	})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"name": name.String(), "updateTime": int64(ts)})
}

func (s *Server) getDoc(w http.ResponseWriter, r *http.Request) {
	name, err := docName(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	d, readTS, err := s.region.GetDocument(r.Context(), r.PathValue("db"), principal(r), name, 0)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"name":       d.Name.String(),
		"fields":     fieldsToJSON(d.Fields),
		"updateTime": int64(d.UpdateTime),
		"createTime": int64(d.CreateTime),
		"readTime":   int64(readTS),
	})
}

func (s *Server) deleteDoc(w http.ResponseWriter, r *http.Request) {
	name, err := docName(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	if _, err := s.region.Commit(r.Context(), r.PathValue("db"), principal(r), []backend.WriteOp{
		{Kind: backend.OpDelete, Name: name},
	}); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "deleted"})
}

// queryJSON is the wire form of a query.
type queryJSON struct {
	Collection string `json:"collection"`
	Where      []struct {
		Field string `json:"field"`
		Op    string `json:"op"`
		Value any    `json:"value"`
	} `json:"where"`
	OrderBy []struct {
		Field string `json:"field"`
		Desc  bool   `json:"desc"`
	} `json:"orderBy"`
	Limit  int      `json:"limit"`
	Offset int      `json:"offset"`
	Select []string `json:"select"`
	// Cursors bound the result range at the sort-order positions the
	// values name (prefix semantics, with an optional trailing document
	// name for an exact restart point). At most one of each pair may be
	// set per query.
	StartAt    []any `json:"startAt"`
	StartAfter []any `json:"startAfter"`
	EndAt      []any `json:"endAt"`
	EndBefore  []any `json:"endBefore"`
	// Aggregations executes the query as an aggregation request: every
	// listed aggregation is computed at one snapshot timestamp, entirely
	// from index entries (count/sum/avg; field required for sum/avg).
	Aggregations []aggregationJSON `json:"aggregations"`
	// Explain returns the planner's alternatives and cost estimates
	// instead of results; Analyze additionally executes every
	// alternative and reports actual index entries visited.
	Explain bool `json:"explain"`
	Analyze bool `json:"analyze"`
}

// aggregationJSON is the wire form of one aggregation.
type aggregationJSON struct {
	Op    string `json:"op"`    // "count", "sum", or "avg"
	Field string `json:"field"` // aggregated field; empty for count
	Alias string `json:"alias"` // result key
}

func (aj aggregationJSON) build() (query.Aggregation, error) {
	a := query.Aggregation{Path: doc.FieldPath(aj.Field), Alias: aj.Alias}
	switch aj.Op {
	case "count":
		a.Kind = query.AggCount
	case "sum":
		a.Kind = query.AggSum
	case "avg":
		a.Kind = query.AggAvg
	default:
		return a, fmt.Errorf("unknown aggregation op %q", aj.Op)
	}
	return a, nil
}

// cursorFromJSON converts one of a pair of wire cursor variants (the
// inclusive At form or its exclusive sibling) into an engine cursor.
func cursorFromJSON(at, excl []any, atName, exclName string) (*query.Cursor, error) {
	if at != nil && excl != nil {
		return nil, fmt.Errorf("at most one of %s and %s may be set", atName, exclName)
	}
	vals, inclusive := at, true
	if excl != nil {
		vals, inclusive = excl, false
	}
	if vals == nil {
		return nil, nil
	}
	c := &query.Cursor{Inclusive: inclusive}
	for _, raw := range vals {
		v, err := valueFromJSON(raw)
		if err != nil {
			return nil, err
		}
		c.Values = append(c.Values, v)
	}
	return c, nil
}

func (qj *queryJSON) build() (*query.Query, error) {
	coll, err := doc.ParseCollection(qj.Collection)
	if err != nil {
		return nil, err
	}
	q := &query.Query{Collection: coll, Limit: qj.Limit, Offset: qj.Offset}
	for _, wc := range qj.Where {
		op, err := query.ParseOperator(wc.Op)
		if err != nil {
			return nil, err
		}
		v, err := valueFromJSON(wc.Value)
		if err != nil {
			return nil, err
		}
		q.Predicates = append(q.Predicates, query.Predicate{Path: doc.FieldPath(wc.Field), Op: op, Value: v})
	}
	for _, ob := range qj.OrderBy {
		dir := index.Ascending
		if ob.Desc {
			dir = index.Descending
		}
		q.Orders = append(q.Orders, query.Order{Path: doc.FieldPath(ob.Field), Dir: dir})
	}
	for _, sel := range qj.Select {
		q.Projection = append(q.Projection, doc.FieldPath(sel))
	}
	if q.Start, err = cursorFromJSON(qj.StartAt, qj.StartAfter, "startAt", "startAfter"); err != nil {
		return nil, err
	}
	if q.End, err = cursorFromJSON(qj.EndAt, qj.EndBefore, "endAt", "endBefore"); err != nil {
		return nil, err
	}
	return q, q.Validate()
}

func (s *Server) runQuery(w http.ResponseWriter, r *http.Request) {
	var qj queryJSON
	if err := json.NewDecoder(r.Body).Decode(&qj); err != nil {
		badRequest(w, err)
		return
	}
	q, err := qj.build()
	if err != nil {
		badRequest(w, err)
		return
	}
	if qj.Explain || qj.Analyze {
		alts, readTS, err := s.region.Backend.ExplainQuery(r.Context(), r.PathValue("db"), principal(r), q, qj.Analyze, 0)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, ExplainPage{Plan: alts[0], Alternatives: alts[1:], ReadTime: int64(readTS)})
		return
	}
	if len(qj.Aggregations) > 0 {
		aggs := make([]query.Aggregation, len(qj.Aggregations))
		for i, aj := range qj.Aggregations {
			if aggs[i], err = aj.build(); err != nil {
				badRequest(w, err)
				return
			}
		}
		res, readTS, err := s.region.Backend.RunAggregation(r.Context(), r.PathValue("db"), principal(r), q, aggs, 0)
		if err != nil {
			httpError(w, err)
			return
		}
		vals := make(map[string]any, len(res.Values))
		for alias, v := range res.Values {
			vals[alias] = valueToJSON(v)
		}
		writeJSON(w, map[string]any{"aggregations": vals, "readTime": int64(readTS)})
		return
	}
	res, readTS, err := s.region.RunQuery(r.Context(), r.PathValue("db"), principal(r), q, nil, 0)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, QueryPage{Documents: documents(res.Docs), ReadTime: int64(readTS)})
}

// QueryPage answers a plain query; fsctl scan pages through it.
type QueryPage struct {
	Documents []Document `json:"documents"`
	ReadTime  int64      `json:"readTime"`
}

// Document is one document in a query answer or a listen event.
type Document struct {
	Name   string         `json:"name"`
	Fields map[string]any `json:"fields"`
}

func documents(docs []*doc.Document) []Document {
	out := make([]Document, len(docs))
	for i, d := range docs {
		out[i] = Document{Name: d.Name.String(), Fields: fieldsToJSON(d.Fields)}
	}
	return out
}

// listen streams real-time snapshots as server-sent events.
func (s *Server) listen(w http.ResponseWriter, r *http.Request) {
	collPath := r.URL.Query().Get("collection")
	coll, err := doc.ParseCollection(collPath)
	if err != nil {
		badRequest(w, err)
		return
	}
	q := &query.Query{Collection: coll}
	if wq := r.URL.Query().Get("where"); wq != "" {
		parts := strings.SplitN(wq, ",", 3)
		if len(parts) != 3 {
			httpError(w, status.New(status.InvalidArgument, "server", "where must be field,op,value"))
			return
		}
		op, err := query.ParseOperator(parts[1])
		if err != nil {
			badRequest(w, err)
			return
		}
		var raw any
		if err := json.Unmarshal([]byte(parts[2]), &raw); err != nil {
			raw = parts[2] // treat as a bare string
		}
		v, err := valueFromJSON(raw)
		if err != nil {
			badRequest(w, err)
			return
		}
		q.Predicates = append(q.Predicates, query.Predicate{Path: doc.FieldPath(parts[0]), Op: op, Value: v})
	}

	conn := s.region.NewConn(r.PathValue("db"), principal(r))
	defer conn.Close()
	if _, err := conn.Listen(r.Context(), q); err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-conn.Events():
			if !ok {
				return
			}
			payload := map[string]any{
				"ts":      int64(ev.TS),
				"initial": ev.Initial,
			}
			var removed []string
			for _, n := range ev.Removed {
				removed = append(removed, n.String())
			}
			payload["added"], payload["modified"], payload["removed"] = documents(ev.Added), documents(ev.Modified), removed
			fmt.Fprintf(w, "data: ")
			enc.Encode(payload)
			fmt.Fprintf(w, "\n")
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
