// Package server implements the HTTP/JSON surface of firestore-server:
// database administration, document CRUD, queries, and server-sent-event
// streaming of real-time snapshots. It exists so the handler is testable
// with net/http/httptest.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// New builds the handler for a region. Each /v1 route is declared once,
// with the operation its root span is named for; the listen stream has
// none, because the frontend layer's registration span roots its trace.
func New(region *core.Region) *Server {
	s := &Server{region: region, mux: http.NewServeMux()}
	s.mount([]route{
		{"POST /v1/databases", "frontend.admin", s.createDatabase},
		{"POST /v1/databases/{db}/rules", "frontend.admin", s.setRules},
		{"POST /v1/databases/{db}/indexes", "frontend.admin", s.addIndex},
		{"PUT /v1/databases/{db}/docs/{path...}", "frontend.put", s.putDoc},
		{"GET /v1/databases/{db}/docs/{path...}", "frontend.get", s.getDoc},
		{"DELETE /v1/databases/{db}/docs/{path...}", "frontend.delete", s.deleteDoc},
		{"POST /v1/databases/{db}/query", "frontend.query", s.runQuery},
		{"GET /v1/databases/{db}/listen", "", s.listen},
	})
	return s
}

// route is a mux pattern, its root span's operation ("" for none) and handler.
type route struct {
	pattern, op string
	h           handler
}

// mount serves each route through handle.
func (s *Server) mount(routes []route) {
	for _, rt := range routes {
		s.mux.Handle(rt.pattern, s.handle(rt.op, rt.h))
	}
}

// DefaultTimeout bounds request handling when the client sets no
// explicit X-Request-Timeout; the streaming listen endpoint is exempt
// (it is a long-lived connection by design).
const DefaultTimeout = 30 * time.Second

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handler serves one route. It returns the page to answer with, or the
// error whose canonical code picks the status (an error wins over a
// page); one that writes its own body, as listen does, returns neither.
type handler func(w http.ResponseWriter, r *http.Request) (page any, err error)

// handle is the ingress of every route: the request gets a request ID
// (minted unless the client sent X-Request-Id, echoed back in the
// response), a QoS class (X-QoS: batch tags throughput traffic), its
// database and the region's span recorder, all carried in the context
// so every layer below can classify, trace, and shed work against them.
// An operation also gets a deadline and runs under a root span named
// op, which ends after the response is written, with the error the
// response carries: the ingress is the root of every trace.
func (s *Server) handle(op string, h handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = reqctx.NewRequestID()
		}
		w.Header().Set("X-Request-Id", rid)
		m := reqctx.Meta{RequestID: rid, DB: r.PathValue("db")}
		if r.Header.Get("X-QoS") == "batch" {
			m.QoS = reqctx.Batch
		}
		ctx := reqctx.WithRecorder(reqctx.With(r.Context(), m), s.region.Recorder)
		var err error
		if op != "" {
			timeout := DefaultTimeout
			if d, perr := time.ParseDuration(r.Header.Get("X-Request-Timeout")); perr == nil && d > 0 {
				timeout = d
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
			var span reqctx.Span
			ctx, span = reqctx.StartSpan(ctx, op)
			defer func() { span.End(err) }()
		}
		var page any
		page, err = h(w, r.WithContext(ctx))
		err = reply(w, page, err)
	})
}

// reply writes a handler's page as JSON, encoded before any header is
// sent, or the error (the page's own, if it cannot be) with the status
// its code maps to, 413 for a body over its cap. It returns that error.
func reply(w http.ResponseWriter, page any, err error) error {
	var body []byte
	if err == nil && page != nil {
		body, err = encode(page)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, err.Error(), status.HTTPStatus(status.CodeOf(err)))
	case body != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
	return err
}

// encode is the one JSON encoding of a response body, newline-ended. Its
// error is unclassified, so it answers 500 and records INTERNAL.
func encode(page any) ([]byte, error) {
	b, err := json.Marshal(page)
	return append(b, '\n'), err
}

// principal derives the caller identity from headers: privileged callers
// set X-Privileged; end users carry "Bearer uid:<user>" tokens (the
// Firebase Authentication stand-in).
func principal(r *http.Request) backend.Principal {
	p := backend.Principal{Batch: reqctx.From(r.Context()).QoS == reqctx.Batch}
	if r.Header.Get("X-Privileged") == "true" {
		p.Privileged = true
	} else if uid, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer uid:"); ok && uid != "" {
		p.Auth = &rules.Auth{UID: uid}
	}
	return p
}

func (s *Server) createDatabase(w http.ResponseWriter, r *http.Request) (any, error) {
	var req struct {
		ID string `json:"id"`
	}
	if err := decodeJSON(r.Body, &req); err != nil {
		return nil, err
	}
	_, err := s.region.CreateDatabase(req.ID)
	return map[string]string{"id": req.ID, "region": s.region.Config.Name}, err
}

func (s *Server) setRules(w http.ResponseWriter, r *http.Request) (any, error) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return nil, status.Wrap(status.InvalidArgument, "server", err)
	}
	return map[string]string{"status": "deployed"}, s.region.SetRules(r.PathValue("db"), string(src))
}

func (s *Server) addIndex(w http.ResponseWriter, r *http.Request) (any, error) {
	var req struct {
		Collection string `json:"collection"`
		Fields     []struct {
			Path string `json:"path"`
			Desc bool   `json:"desc"`
		} `json:"fields"`
	}
	if err := decodeJSON(r.Body, &req); err != nil {
		return nil, err
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
	return map[string]any{"id": def.ID, "status": "ready"}, s.region.AddCompositeIndex(r.Context(), r.PathValue("db"), def)
}

func docName(r *http.Request) (doc.Name, error) {
	return doc.ParseName("/" + r.PathValue("path"))
}

func (s *Server) putDoc(w http.ResponseWriter, r *http.Request) (any, error) {
	name, err := docName(r)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := decodeJSON(r.Body, &raw); err != nil {
		return nil, err
	}
	fields, err := fieldsFromJSON(raw)
	if err != nil {
		return nil, err
	}
	ts, err := s.region.Commit(r.Context(), r.PathValue("db"), principal(r), []backend.WriteOp{
		{Kind: backend.OpSet, Name: name, Fields: fields},
	})
	return map[string]any{"name": name.String(), "updateTime": int64(ts)}, err
}

func (s *Server) getDoc(w http.ResponseWriter, r *http.Request) (any, error) {
	name, err := docName(r)
	if err != nil {
		return nil, err
	}
	d, readTS, err := s.region.GetDocument(r.Context(), r.PathValue("db"), principal(r), name, 0)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"name":       d.Name.String(),
		"fields":     fieldsToJSON(d.Fields),
		"updateTime": int64(d.UpdateTime),
		"createTime": int64(d.CreateTime),
		"readTime":   int64(readTS),
	}, nil
}

func (s *Server) deleteDoc(w http.ResponseWriter, r *http.Request) (any, error) {
	name, err := docName(r)
	if err != nil {
		return nil, err
	}
	_, err = s.region.Commit(r.Context(), r.PathValue("db"), principal(r), []backend.WriteOp{
		{Kind: backend.OpDelete, Name: name},
	})
	return map[string]string{"status": "deleted"}, err
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
	// PageToken resumes the query after the page whose next it was.
	PageToken []byte `json:"pageToken"`
}

// aggregationJSON is the wire form of one aggregation.
type aggregationJSON struct {
	Op    string `json:"op"`    // "count", "sum", or "avg"
	Field string `json:"field"` // aggregated field; empty for count
	Alias string `json:"alias"` // result key
}

var aggKinds = map[string]query.AggKind{"count": query.AggCount, "sum": query.AggSum, "avg": query.AggAvg}

func (aj aggregationJSON) build() (query.Aggregation, error) {
	kind, ok := aggKinds[aj.Op]
	if !ok {
		return query.Aggregation{}, status.Errorf(status.InvalidArgument, "server", "unknown aggregation op %q", aj.Op)
	}
	return query.Aggregation{Kind: kind, Path: doc.FieldPath(aj.Field), Alias: aj.Alias}, nil
}

// cursorFromJSON converts one of a pair of wire cursor variants (the
// inclusive At form or its exclusive sibling) into an engine cursor.
func cursorFromJSON(at, excl []any, atName, exclName string) (*query.Cursor, error) {
	if at != nil && excl != nil {
		return nil, status.Errorf(status.InvalidArgument, "server", "at most one of %s and %s may be set", atName, exclName)
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

func (s *Server) runQuery(w http.ResponseWriter, r *http.Request) (any, error) {
	var qj queryJSON
	if err := decodeJSON(r.Body, &qj); err != nil {
		return nil, err
	}
	q, err := qj.build()
	if err != nil {
		return nil, status.WithCode(status.InvalidArgument, err)
	}
	if qj.Explain || qj.Analyze {
		plan, readTS, err := s.region.Backend.ExplainQuery(r.Context(), r.PathValue("db"), principal(r), q, qj.Analyze, 0)
		return ExplainPage{Plan: plan, ReadTime: int64(readTS)}, err
	}
	if len(qj.Aggregations) > 0 {
		aggs := make([]query.Aggregation, len(qj.Aggregations))
		for i, aj := range qj.Aggregations {
			if aggs[i], err = aj.build(); err != nil {
				return nil, err
			}
		}
		res, readTS, err := s.region.Backend.RunAggregation(r.Context(), r.PathValue("db"), principal(r), q, aggs, 0)
		if err != nil {
			return nil, err
		}
		vals := make(map[string]any, len(res.Values))
		for alias, v := range res.Values {
			vals[alias] = valueToJSON(v)
		}
		return map[string]any{"aggregations": vals, "readTime": int64(readTS)}, nil
	}
	res, readTS, err := s.region.RunQuery(r.Context(), r.PathValue("db"), principal(r), q, qj.PageToken, 0)
	if err != nil {
		return nil, err
	}
	return QueryPage{Documents: documents(res.Docs), ReadTime: int64(readTS), Next: res.Resume}, nil
}

// QueryPage answers a plain query. A result larger than one page
// (query.MaxResultSize documents) continues when the same query is sent
// again with next as its pageToken. The token carries the first page's
// readTime, at which every page reads, and what remains of the limit: a
// malformed or future token answers 400, and a token older than version
// retention keeps (about a second) answers 424.
type QueryPage struct {
	Documents []Document `json:"documents"`
	ReadTime  int64      `json:"readTime"`
	// Next is the page token of the page after this one, absent when the
	// query ran out or reached its limit.
	Next []byte `json:"next,omitempty"`
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
func (s *Server) listen(w http.ResponseWriter, r *http.Request) (any, error) {
	coll, err := doc.ParseCollection(r.URL.Query().Get("collection"))
	if err != nil {
		return nil, err
	}
	q := &query.Query{Collection: coll}
	if wq := r.URL.Query().Get("where"); wq != "" {
		parts := strings.SplitN(wq, ",", 3)
		if len(parts) != 3 {
			return nil, status.New(status.InvalidArgument, "server", "where must be field,op,value")
		}
		op, err := query.ParseOperator(parts[1])
		if err != nil {
			return nil, err
		}
		var raw any
		if decodeJSON(strings.NewReader(parts[2]), &raw) != nil {
			raw = parts[2] // treat as a bare string
		}
		v, err := valueFromJSON(raw)
		if err != nil {
			return nil, err
		}
		q.Predicates = append(q.Predicates, query.Predicate{Path: doc.FieldPath(parts[0]), Op: op, Value: v})
	}

	conn := s.region.NewConn(r.PathValue("db"), principal(r))
	defer conn.Close()
	if _, err := conn.Listen(r.Context(), q); err != nil {
		return nil, err
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	for {
		select {
		case <-r.Context().Done():
			return nil, nil
		case ev, ok := <-conn.Events():
			if !ok {
				return nil, nil
			}
			// at places each added, then modified, document in the
			// target's new result (DESIGN.md "Real-time delivery
			// contract"): the client does not order by values.
			payload := map[string]any{
				"ts":      int64(ev.TS),
				"initial": ev.Initial,
				"at":      ev.At,
			}
			var removed []string
			for _, n := range ev.Removed {
				removed = append(removed, n.String())
			}
			payload["added"], payload["modified"], payload["removed"] = documents(ev.Added), documents(ev.Modified), removed
			body, err := encode(payload)
			if err = cmp.Or(ev.Err, err); err != nil {
				// The query could not be rebuilt, or the event has no JSON
				// form: the stream ends with the error, which encodes.
				body, _ = encode(map[string]string{"error": err.Error()})
			}
			fmt.Fprintf(w, "data: %s\n", body)
			// A client that went away also ends r's context, and the loop.
			_ = http.NewResponseController(w).Flush()
			if err != nil {
				return nil, nil
			}
		}
	}
}
