// Command fsctl is the admin CLI for a running firestore-server: create
// databases, deploy security rules, define composite indexes, and perform
// ad-hoc document and query operations — the moral equivalent of the
// gcloud/console flows the paper's §V-D walks through.
//
// Usage:
//
//	fsctl [-server http://localhost:8565] [-db mydb] [-uid user] <command> [args]
//
// Commands:
//
//	create-db                          create the database
//	set-rules <file>                   deploy rules from a file ("-" = stdin)
//	add-index <coll> <field[:desc]>... define a composite index
//	put <path> <json>                  set a document
//	get <path>                         read a document
//	delete <path>                      delete a document
//	query <json>                       run a query (see firestore-server docs)
//	explain <json> [analyze]           show the plan the planner picks
//	advisor                            index advisor report from /debug/advisorz
//	scan <collection> [pageSize]       page through a whole collection by cursor
//	watch <collection>                 stream real-time snapshots (SSE)
//	stats [metric-substring]           scrape /debug/metricz and pretty-print
//	stats -watch <interval> [substr]   rescrape every interval, print deltas/sec
//	keyviz [svg]                       keyspace heatmap from /debug/keyvizz
//	storage                            per-tablet storage engines from /debug/storagez
//	cluster                            multi-process peer table from /debug/clusterz
//	traces [sampled|slow|error] [n]    dump recent traces from /debug/tracez
//	faults list                        show fault-injection sites and counters
//	faults enable <site> <mode> [k=v]  arm a fault (prob= latency= code= max= seed=)
//	faults disable <site>              disarm one site
//	faults reset                       disarm everything
//
// The faults commands require the server to run with -debug; the plane
// is a test/operations facility, never on by default.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"firestore/cmd/firestore-server/server"
	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/reqctx"
)

func main() {
	base := flag.String("server", "http://localhost:8565", "firestore-server base URL")
	db := flag.String("db", "default", "database ID")
	uid := flag.String("uid", "", "act as this end user (default: privileged)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &cli{base: *base, db: *db, uid: *uid}
	var err error
	switch cmd := args[0]; cmd {
	case "create-db":
		err = c.post("/v1/databases", fmt.Sprintf(`{"id":%q}`, *db))
	case "set-rules":
		err = c.setRules(args[1:])
	case "add-index":
		err = c.addIndex(args[1:])
	case "put":
		err = c.put(args[1:])
	case "get":
		err = c.simple("GET", "/docs", args[1:])
	case "delete":
		err = c.simple("DELETE", "/docs", args[1:])
	case "query":
		err = c.query(args[1:])
	case "explain":
		err = c.explain(args[1:])
	case "advisor":
		err = c.advisor(args[1:])
	case "scan":
		err = c.scan(args[1:])
	case "watch":
		err = c.watch(args[1:])
	case "stats":
		err = c.stats(args[1:])
	case "keyviz":
		err = c.keyviz(args[1:])
	case "storage":
		err = c.storage(args[1:])
	case "cluster":
		err = c.cluster(args[1:])
	case "traces":
		err = c.traces(args[1:])
	case "faults":
		err = c.faults(args[1:])
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsctl:", err)
		os.Exit(1)
	}
}

type cli struct {
	base string
	db   string
	uid  string
}

// request sends one call as the configured principal. A 4xx/5xx answer
// is returned as an error carrying the response body.
func (c *cli) request(method, path, body string) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.uid == "" {
		req.Header.Set("X-Privileged", "true")
	} else {
		req.Header.Set("Authorization", "Bearer uid:"+c.uid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode < 400 {
		return resp, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
}

// echo prints the response body.
func (c *cli) echo(method, path, body string) error {
	resp, err := c.request(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// decode sends one call and decodes its JSON answer into out.
func (c *cli) decode(method, path, body string, out any) error {
	resp, err := c.request(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSON fetches a server-level (non-database) endpoint and decodes it.
func (c *cli) getJSON(path string, out any) error { return c.decode("GET", path, "", out) }

func (c *cli) post(path, body string) error { return c.echo("POST", path, body) }

func (c *cli) dbPath(suffix string) string {
	return "/v1/databases/" + c.db + suffix
}

func (c *cli) setRules(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("set-rules <file>")
	}
	var src []byte
	var err error
	if args[0] == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	return c.echo("POST", c.dbPath("/rules"), string(src))
}

func (c *cli) addIndex(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("add-index <collection> <field[:desc]>...")
	}
	var fields []string
	for _, f := range args[1:] {
		name, kind, _ := strings.Cut(f, ":")
		fields = append(fields, fmt.Sprintf(`{"path":%q,"desc":%v}`, name, kind == "desc"))
	}
	body := fmt.Sprintf(`{"collection":%q,"fields":[%s]}`, args[0], strings.Join(fields, ","))
	return c.echo("POST", c.dbPath("/indexes"), body)
}

func (c *cli) put(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("put <path> <json>")
	}
	return c.echo("PUT", c.dbPath("/docs"+ensureSlash(args[0])), args[1])
}

func (c *cli) simple(method, prefix string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s <path>", strings.ToLower(method))
	}
	return c.echo(method, c.dbPath(prefix+ensureSlash(args[0])), "")
}

func (c *cli) query(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("query <json>")
	}
	return c.echo("POST", c.dbPath("/query"), args[0])
}

// explain posts the query with the explain flag set and prints the plan
// the planner picks on one line; with "analyze", the plan is also
// executed and the index entries it visited and its results follow.
func (c *cli) explain(args []string) error {
	if len(args) < 1 || len(args) > 2 || (len(args) == 2 && args[1] != "analyze") {
		return fmt.Errorf("explain <json> [analyze]")
	}
	var q map[string]any
	if err := json.Unmarshal([]byte(args[0]), &q); err != nil {
		return fmt.Errorf("explain: %v", err)
	}
	q["explain"] = true
	analyze := len(args) == 2
	if analyze {
		q["analyze"] = true
	}
	body, err := json.Marshal(q)
	if err != nil {
		return err
	}
	var view server.ExplainPage
	if err := c.decode("POST", c.dbPath("/query"), string(body), &view); err != nil {
		return err
	}
	line := fmt.Sprintf("%-10s %s", view.Plan.Choice, view.Plan.Plan)
	if analyze {
		line += fmt.Sprintf("  [actual=%d scans=%d results=%d]", view.Plan.ActualEntries, view.Plan.Scans, view.Plan.Results)
	}
	fmt.Println(line)
	return nil
}

// advisor renders the index advisor report: per-query-shape planner
// choices and plannings, scan efficiency, and composite index
// suggestions for shapes scanning far more entries than they return.
func (c *cli) advisor(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("advisor takes no arguments")
	}
	var view server.AdvisorzPage
	if err := c.getJSON("/debug/advisorz?db="+c.db, &view); err != nil {
		return err
	}
	if len(view.Shapes) == 0 {
		fmt.Println("no queries observed yet")
		return nil
	}
	fmt.Printf("%-10s %8s %8s %10s %8s  %s\n", "CHOICE", "PLANNED", "QUERIES", "SCANNED", "RESULTS", "SHAPE")
	for _, s := range view.Shapes {
		fmt.Printf("%-10s %8d %8d %10d %8d  %s\n", s.Choice, s.Planned, s.Queries, s.Scanned, s.Results, s.Shape)
		if s.Suggested != "" {
			fmt.Printf("%41s suggest: %s\n", "", s.Suggested)
		}
	}
	return nil
}

// scan pages through an entire collection in name order, one JSON
// document per line: each page is a limited query whose startAfter
// cursor is the previous page's last document name, so arbitrarily
// large collections stream in bounded requests. Each page is its own
// snapshot: a page token would pin the first page's, and version
// retention keeps a snapshot readable for about a second, far less than
// a large scan takes. A page size above what the server returns in one
// page (query.MaxResultSize) is clamped to it, since a short page ends
// the scan.
func (c *cli) scan(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("scan <collection> [pageSize]")
	}
	pageSize := 100
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("scan: page size must be a positive integer, got %q", args[1])
		}
		pageSize = min(n, query.MaxResultSize)
	}
	coll := ensureSlash(args[0])
	var after string
	for {
		body := fmt.Sprintf(`{"collection":%q,"limit":%d}`, coll, pageSize)
		if after != "" {
			body = fmt.Sprintf(`{"collection":%q,"limit":%d,"startAfter":[%q]}`, coll, pageSize, after)
		}
		var page server.QueryPage
		if err := c.decode("POST", c.dbPath("/query"), body, &page); err != nil {
			return err
		}
		for _, d := range page.Documents {
			line, err := json.Marshal(d)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
		if len(page.Documents) < pageSize {
			return nil
		}
		after = page.Documents[len(page.Documents)-1].Name
	}
}

func (c *cli) watch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("watch <collection>")
	}
	resp, err := c.request("GET", c.dbPath("/listen?collection="+ensureSlash(args[0])), "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "data: ") {
			fmt.Println(strings.TrimPrefix(line, "data: "))
		}
	}
	return scanner.Err()
}

func (c *cli) scrapeStats() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.getJSON("/debug/metricz?format=json", &snap)
	return snap, err
}

// stats scrapes /debug/metricz?format=json and renders it as aligned
// "name{labels} value" lines; an optional argument filters by substring
// match against the rendered name+labels. With -watch <interval>, it
// rescrapes every interval and prints only the metrics that moved, as
// deltas per second, until interrupted.
func (c *cli) stats(args []string) error {
	if len(args) > 0 && args[0] == "-watch" {
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("stats -watch <interval> [metric-substring]")
		}
		interval, err := time.ParseDuration(args[1])
		if err != nil || interval <= 0 {
			return fmt.Errorf("stats -watch: interval must be a positive duration, got %q", args[1])
		}
		filter := ""
		if len(args) == 3 {
			filter = args[2]
		}
		return c.statsWatch(interval, filter, 0)
	}
	if len(args) > 1 {
		return fmt.Errorf("stats [metric-substring]")
	}
	filter := ""
	if len(args) == 1 {
		filter = args[0]
	}
	snap, err := c.scrapeStats()
	if err != nil {
		return err
	}
	emit := func(key, value string) {
		if filter == "" || strings.Contains(key, filter) {
			fmt.Printf("%-56s %s\n", key, value)
		}
	}
	for _, m := range snap.Counters {
		emit(m.Name+labelSuffix(m.Labels), strconv.FormatInt(m.Value, 10))
	}
	for _, m := range snap.Gauges {
		emit(m.Name+labelSuffix(m.Labels), strconv.FormatFloat(m.Value, 'g', -1, 64))
	}
	for _, m := range snap.Histograms {
		emit(m.Name+labelSuffix(m.Labels), fmt.Sprintf(
			"count=%d p50=%s p95=%s p99=%s mean=%s",
			m.Count, ms(m.P50), ms(m.P95), ms(m.P99), ms(m.Mean)))
	}
	return nil
}

// statsWatch is the -watch loop: scrape a baseline, then every interval
// print per-second rates for counters and histogram counts that moved
// (gauges print their current value when it changed). iters > 0 bounds
// the number of ticks (tests); 0 watches until the process is killed.
func (c *cli) statsWatch(interval time.Duration, filter string, iters int) error {
	prev, err := c.scrapeStats()
	if err != nil {
		return err
	}
	counters := func(s obs.Snapshot) map[string]int64 {
		out := make(map[string]int64, len(s.Counters)+len(s.Histograms))
		for _, m := range s.Counters {
			out[m.Name+labelSuffix(m.Labels)] = m.Value
		}
		for _, m := range s.Histograms {
			out[m.Name+labelSuffix(m.Labels)+" count"] = int64(m.Count)
		}
		return out
	}
	gauges := func(s obs.Snapshot) map[string]float64 {
		out := make(map[string]float64, len(s.Gauges))
		for _, m := range s.Gauges {
			out[m.Name+labelSuffix(m.Labels)] = m.Value
		}
		return out
	}
	prevC, prevG := counters(prev), gauges(prev)
	lastScrape := time.Now()
	for tick := 0; iters <= 0 || tick < iters; tick++ {
		time.Sleep(interval)
		cur, err := c.scrapeStats()
		if err != nil {
			return err
		}
		now := time.Now()
		elapsed := now.Sub(lastScrape).Seconds()
		if elapsed <= 0 {
			elapsed = interval.Seconds()
		}
		lastScrape = now
		curC, curG := counters(cur), gauges(cur)
		keys := make([]string, 0, len(curC)+len(curG))
		for k := range curC {
			if curC[k] != prevC[k] {
				keys = append(keys, k)
			}
		}
		for k := range curG {
			if curG[k] != prevG[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Printf("-- %s (over %.1fs)\n", now.Format("15:04:05"), elapsed)
		if len(keys) == 0 {
			fmt.Println("(no change)")
		}
		for _, k := range keys {
			if filter != "" && !strings.Contains(k, filter) {
				continue
			}
			if v, ok := curC[k]; ok {
				fmt.Printf("%-56s %+.1f/s\n", k, float64(v-prevC[k])/elapsed)
			} else {
				fmt.Printf("%-56s %g (was %g)\n", k, curG[k], prevG[k])
			}
		}
		prevC, prevG = curC, curG
	}
	return nil
}

// keyviz renders the keyspace heatmap from /debug/keyvizz in the
// terminal: one shaded row per tablet/range, top hotspots, and the
// split/rebalance/shed/fault event timeline. "keyviz svg" echoes the
// server's SVG rendering for piping to a file.
func (c *cli) keyviz(args []string) error {
	if len(args) > 1 || (len(args) == 1 && args[0] != "svg") {
		return fmt.Errorf("keyviz [svg]")
	}
	if len(args) == 1 {
		return c.echo("GET", "/debug/keyvizz?format=svg", "")
	}
	var snap keyviz.Snapshot
	if err := c.getJSON("/debug/keyvizz", &snap); err != nil {
		return err
	}
	fmt.Print(keyviz.RenderText(snap, 64))
	return nil
}

// storage scrapes /debug/storagez and renders one line per tablet —
// engine kind, key counts, WAL/memtable/segment footprint, and
// flush/compaction/recovery activity — plus a region totals line.
func (c *cli) storage(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("storage takes no arguments")
	}
	var view server.TabletsPage
	if err := c.getJSON("/debug/storagez", &view); err != nil {
		return err
	}
	for _, sp := range view.Spanners {
		for _, t := range sp.Tablets {
			st := t.Storage
			fmt.Printf("spanner %d tablet %-4d %-4s keys=%-6d mem=%dB/%d keys wal=%dB fsyncs=%d segs=%d/%dB flush=%d compact=%d recover=%d\n",
				sp.Index, t.ID, st.Kind, st.Keys,
				st.MemtableBytes, st.MemtableKeys,
				st.WALBytes, st.Fsyncs,
				st.Segments, st.SegmentBytes,
				st.Flushes, st.Compactions, st.Recoveries)
		}
	}
	if t := view.Totals; t != nil {
		fmt.Printf("totals: tablets=%d keys=%d wal_bytes=%d memtable_bytes=%d segments=%d segment_bytes=%d flushes=%d compactions=%d recoveries=%d\n",
			t.Tablets, t.Keys, t.WALBytes, t.MemBytes, t.Segments, t.SegBytes, t.Flushes, t.Compactions, t.Recoveries)
	}
	return nil
}

// cluster prints the multi-process peer table from /debug/clusterz: one
// line per tablet server (role, address, heartbeat age, connection-pool
// health) and one line per owned tablet range.
func (c *cli) cluster(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("cluster takes no arguments")
	}
	var view server.ClusterzPage
	if err := c.getJSON("/debug/clusterz", &view); err != nil {
		return err
	}
	if !view.Enabled {
		fmt.Println("single-process region (no cluster coordinator)")
		return nil
	}
	bound := func(b []byte, inf string) string {
		if b == nil {
			return inf
		}
		return strconv.Quote(string(b))
	}
	fmt.Printf("coordinator %s, %d peer(s)\n", view.Cluster.Coordinator, len(view.Cluster.Peers))
	for _, p := range view.Cluster.Peers {
		hb := "never"
		if p.LastHeartbeatUnixNano > 0 {
			hb = time.Since(time.Unix(0, p.LastHeartbeatUnixNano)).Truncate(time.Millisecond).String() + " ago"
		}
		health := "healthy"
		if !p.Pool.Healthy {
			health = fmt.Sprintf("UNHEALTHY (%d consecutive failures)", p.Pool.ConsecutiveFailures)
		}
		if !p.Pool.Connected {
			health += " disconnected"
		}
		fmt.Printf("peer %-8s %-4s addr=%-21s hb=%-12s engines=%d pool: %s calls=%d errs=%d reconnects=%d\n",
			p.Name, p.Kind, p.Addr, hb, p.TabletsReported,
			health, p.Pool.Calls, p.Pool.Errors, p.Pool.Reconnects)
		if p.Pool.LastError != "" {
			fmt.Printf("  last error: %s\n", p.Pool.LastError)
		}
		for _, o := range p.Owned {
			live := "live"
			if !o.Live {
				live = "recovering"
			}
			fmt.Printf("  db %d tablet %-4d [%s, %s) %s\n",
				o.DB, o.Tablet, bound(o.Start, "-inf"), bound(o.End, "+inf"), live)
		}
	}
	return nil
}

// faults drives /debug/faultz: list the fault-site inventory or arm and
// disarm injection specs on the running server.
func (c *cli) faults(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("faults list|enable|disable|reset")
	}
	switch sub := args[0]; sub {
	case "list":
		var resp server.FaultzPage
		if err := c.getJSON("/debug/faultz", &resp); err != nil {
			return err
		}
		fmt.Printf("%-26s %-9s %-28s %-8s %6s %9s  %s\n",
			"SITE", "LAYER", "ARMED", "HITS", "FIRED", "PROB", "DOC")
		for _, st := range resp.Sites {
			armed := "-"
			if st.Enabled {
				armed = string(st.Mode)
				if st.Code != "" {
					armed += ":" + st.Code
				}
				if st.LatencyNS > 0 {
					armed += ":" + (time.Duration(st.LatencyNS) * time.Nanosecond).String()
				}
				if st.MaxCount > 0 {
					armed += fmt.Sprintf(" (max %d)", st.MaxCount)
				}
			}
			prob := "-"
			if st.Enabled {
				p := st.Prob
				if p == 0 {
					p = 1
				}
				prob = strconv.FormatFloat(p, 'g', -1, 64)
			}
			fmt.Printf("%-26s %-9s %-28s %-8d %6d %9s  %s\n",
				st.Site, st.Layer, armed, st.Hits, st.Injected, prob, st.Doc)
		}
		return nil
	case "enable":
		if len(args) < 3 {
			return fmt.Errorf("faults enable <site> <mode> [prob=P] [latency=D] [code=NAME] [max=N] [seed=N]")
		}
		req := server.FaultzRequest{Action: "enable", Spec: fault.Spec{Site: args[1], Mode: fault.Mode(args[2])}}
		for _, kv := range args[3:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("expected key=value, got %q", kv)
			}
			var err error
			switch k {
			case "prob":
				req.Spec.Prob, err = strconv.ParseFloat(v, 64)
			case "latency":
				req.Spec.Latency, err = time.ParseDuration(v)
			case "code":
				req.CodeName = strings.ToUpper(v)
			case "max":
				req.Spec.MaxCount, err = strconv.ParseInt(v, 10, 64)
			case "seed":
				req.Seed, err = strconv.ParseInt(v, 10, 64)
			default:
				return fmt.Errorf("unknown option %q (prob, latency, code, max, seed)", k)
			}
			if err != nil {
				return fmt.Errorf("%s: %v", k, err)
			}
		}
		return c.postFaultz(req)
	case "disable":
		if len(args) != 2 {
			return fmt.Errorf("faults disable <site>")
		}
		return c.postFaultz(server.FaultzRequest{Action: "disable", Site: args[1]})
	case "reset":
		return c.postFaultz(server.FaultzRequest{Action: "reset"})
	default:
		return fmt.Errorf("unknown faults subcommand %q", sub)
	}
}

func (c *cli) postFaultz(req server.FaultzRequest) error {
	enc, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.post("/debug/faultz", string(enc))
}

// traces dumps recent kept traces from /debug/tracez as indented span
// trees: one header line per trace, one line per span nested by depth.
func (c *cli) traces(args []string) error {
	if len(args) > 2 {
		return fmt.Errorf("traces [sampled|slow|error] [n]")
	}
	kind := "sampled"
	if len(args) >= 1 {
		switch args[0] {
		case "sampled", "slow", "error":
			kind = args[0]
		default:
			return fmt.Errorf("traces: kind must be sampled, slow, or error, got %q", args[0])
		}
	}
	n := 8
	if len(args) == 2 {
		v, err := strconv.Atoi(args[1])
		if err != nil || v <= 0 {
			return fmt.Errorf("traces: n must be a positive integer, got %q", args[1])
		}
		n = v
	}
	var page server.TracezPage
	if err := c.getJSON("/debug/tracez?kind="+kind+"&n="+strconv.Itoa(n), &page); err != nil {
		return err
	}
	traces := map[string][]reqctx.TraceData{"sampled": page.Sampled, "slow": page.Slow, "error": page.Error}[kind]
	if len(traces) == 0 {
		fmt.Printf("no %s traces kept yet\n", kind)
		return nil
	}
	for _, t := range traces {
		fmt.Printf("trace %s db=%s qos=%s total=%s\n", t.ID, t.DB, t.QoS, ms(int64(t.Duration)))
		children := map[uint64][]reqctx.SpanData{}
		for _, s := range t.Spans {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
		var walk func(parent uint64, depth int)
		walk = func(parent uint64, depth int) {
			for _, s := range children[parent] {
				line := fmt.Sprintf("%s%s %s %s", strings.Repeat("  ", depth+1), s.Name, ms(int64(s.Duration)), s.Code)
				for _, a := range s.Attrs {
					line += " " + a.Key + "=" + a.Value
				}
				fmt.Println(line)
				walk(s.ID, depth+1)
			}
		}
		walk(0, 0)
	}
	return nil
}

// labelSuffix renders a label map as {k=v,...} with sorted keys.
func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ms renders nanoseconds as fractional milliseconds.
func ms(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64) + "ms"
}

func ensureSlash(p string) string {
	if strings.HasPrefix(p, "/") {
		return p
	}
	return "/" + p
}
