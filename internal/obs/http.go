package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"toposhot/internal/metrics"
	"toposhot/internal/trace"
)

// Dash bundles the four observability surfaces behind one HTTP handler —
// the live campaign dashboard served by toposhotd and by `toposhot -events`:
//
//	GET /                same as /dashboard
//	GET /dashboard       HTML status page (phase progress, ETA, cost burn)
//	GET /events          live event stream: SSE by default, the full
//	                     buffered log as JSONL with ?format=jsonl
//	GET /log             buffered event log (JSONL; ?format=text for logfmt)
//	GET /ledger          cost totals + per-phase table as JSON
//	                     (?format=jsonl streams the raw records)
//	GET /metrics         metrics snapshot (JSON; Prometheus text via
//	                     ?format=prom or an Accept: text/plain header)
//	GET /trace/snapshot  trace (Chrome JSON; ?format=jsonl for JSONL)
//	GET /progress        span-derived phase progress and ETA
//
// Any surface may be nil; its endpoints then serve empty documents rather
// than 404s, so dashboards and smoke tests need not care which instruments
// a given run enabled.
type Dash struct {
	Logger  *Logger
	Ledger  *Ledger
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Handler returns the dashboard mux. Extra routes (a daemon's /peers, pprof)
// can be added by mounting this on a parent mux.
func (d *Dash) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", d.serveDashboard)
	mux.HandleFunc("/dashboard", d.serveDashboard)
	mux.HandleFunc("/events", d.serveEvents)
	mux.HandleFunc("/log", d.serveLog)
	mux.HandleFunc("/ledger", d.serveLedger)
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/trace/snapshot", d.serveTrace)
	mux.HandleFunc("/progress", d.serveProgress)
	return mux
}

// serveEvents streams the event log. ?format=jsonl dumps the buffered
// snapshot and returns; the default is Server-Sent Events — the snapshot
// replayed first, then live events until the client disconnects.
func (d *Dash) serveEvents(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := d.Logger.Snapshot().WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	writeSSE := func(scope int, scopeName string, r *trace.Record) bool {
		raw, err := json.Marshal(eventLine(scope, scopeName, r))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Live events land in a buffered channel from the tap; slow clients
	// drop (taps must never block the emitting goroutine).
	live := make(chan Event, 256)
	cancel := d.Logger.Tap(func(e Event) {
		select {
		case live <- e:
		default:
		}
	})
	defer cancel()

	// Replay the buffered history first, then follow the live stream.
	snap := d.Logger.Snapshot()
	for _, sc := range snap.Lanes {
		for i := range sc.Records {
			if !writeSSE(sc.ID, sc.Name, &sc.Records[i]) {
				return
			}
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-live:
			if !writeSSE(e.Scope, d.Logger.ScopeName(e.Scope), &e.Record) {
				return
			}
		}
	}
}

func (d *Dash) serveLog(w http.ResponseWriter, r *http.Request) {
	snap := d.Logger.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := snap.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := snap.WriteJSONL(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Dash) serveLedger(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := d.Ledger.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Totals CostTotals  `json:"totals"`
		Ether  float64     `json:"fee_ether"`
		Phases []PhaseCost `json:"phases"`
	}{
		Totals: d.Ledger.Totals(),
		Ether:  d.Ledger.Totals().FeeEther(),
		Phases: d.Ledger.ByPhase(),
	})
}

func (d *Dash) serveMetrics(w http.ResponseWriter, r *http.Request) {
	// Prometheus scrapers negotiate the text exposition via ?format=prom
	// or a text/plain Accept header; everything else gets the richer JSON
	// snapshot. (Moved here from toposhotd so every dashboard host
	// negotiates identically.)
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", metrics.PromContentType)
		if err := d.Metrics.Snapshot().WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := d.Metrics.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Dash) serveTrace(w http.ResponseWriter, r *http.Request) {
	snap := d.Tracer.Live()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := snap.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteChromeJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Dash) serveProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.Tracer.Live().Progress())
}

func (d *Dash) serveDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/dashboard" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

// dashboardHTML is the self-contained status page: phase progress and ETA
// from /progress, cost burn from /ledger, and a tail of the live /events
// stream. Plain fetch + EventSource, no assets, so it works from a curl'd
// file just as well as from the daemon.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>toposhot campaign observatory</title>
<style>
 body{font:14px/1.45 system-ui,sans-serif;margin:1.5rem;background:#10141a;color:#d7dde6}
 h1{font-size:1.15rem} h2{font-size:.95rem;margin:1.2rem 0 .4rem;color:#9fb0c3}
 table{border-collapse:collapse;width:100%;font-variant-numeric:tabular-nums}
 td,th{padding:.2rem .6rem;text-align:right;border-bottom:1px solid #222a35}
 th{color:#9fb0c3;font-weight:500} td:first-child,th:first-child{text-align:left}
 .bar{background:#1b2330;height:.6rem;border-radius:.3rem;overflow:hidden;min-width:8rem}
 .bar>i{display:block;height:100%;background:#4f9cf9}
 #events{font:12px/1.4 ui-monospace,monospace;white-space:pre-wrap;background:#0b0e13;
  border:1px solid #222a35;border-radius:.4rem;padding:.6rem;max-height:18rem;overflow:auto}
 .warn{color:#f2b84b}.error{color:#f26d6d}
</style></head><body>
<h1>toposhot campaign observatory</h1>
<h2>phase progress</h2><table id="phases"><tbody></tbody></table>
<h2>cost burn</h2><table id="costs"><tbody></tbody></table>
<h2>events</h2><div id="events"></div>
<script>
const fmt=(x,d)=>x==null?"":Number(x).toFixed(d===undefined?2:d);
async function refresh(){
 try{
  const p=await (await fetch("progress")).json();
  let rows='<tr><th>span</th><th>done</th><th>total</th><th></th><th>eta (virtual s)</th></tr>';
  for(const sp of (p.open||[])){
   const pct=sp.total?100*(sp.done||0)/sp.total:0;
   rows+='<tr><td>'+sp.name+' @'+(sp.lane_name||sp.lane)+'</td><td>'+(sp.done||0)+
    '</td><td>'+(sp.total||"")+'</td><td><div class="bar"><i style="width:'+fmt(pct,0)+
    '%"></i></div></td><td>'+(sp.eta_virtual_s>=0?fmt(sp.eta_virtual_s,1):"")+'</td></tr>';
  }
  for(const ph of (p.phases||[])){
   rows+='<tr><td>'+ph.name+'</td><td>'+ph.count+'</td><td></td><td></td><td>done, mean '+
    fmt(ph.mean_virtual_s,2)+'s</td></tr>';
  }
  document.querySelector("#phases tbody").innerHTML=rows;
 }catch(e){}
 try{
  const l=await (await fetch("ledger")).json();
  let rows='<tr><th>phase</th><th>probes</th><th>detected</th><th>pending</th>'+
   '<th>futures</th><th>fee (ether)</th></tr>';
  const row=(name,c)=>'<tr><td>'+name+'</td><td>'+c.pairs+'</td><td>'+c.detected+
   '</td><td>'+c.pending+'</td><td>'+c.futures+'</td><td>'+fmt(c.fee_wei/1e18,6)+'</td></tr>';
  for(const ph of (l.phases||[])) rows+=row(ph.phase||"(campaign)",ph);
  if(l.totals) rows+=row("<b>total</b>",l.totals);
  document.querySelector("#costs tbody").innerHTML=rows;
 }catch(e){}
 setTimeout(refresh,2000);
}
refresh();
const pane=document.getElementById("events");
const es=new EventSource("events");
es.onmessage=m=>{
 try{
  const e=JSON.parse(m.data);
  const div=document.createElement("div");
  if(e.level==="warn"||e.level==="error")div.className=e.level;
  let line="t="+fmt(e.t,3)+" ["+(e.level||"info")+"] "+(e.msg||"");
  for(const f of (e.fields||[]))line+=" "+f.k+"="+(f.s!==undefined?f.s:f.i!==undefined?f.i:f.f!==undefined?fmt(f.f):f.b);
  div.textContent=line;
  pane.appendChild(div);
  while(pane.childNodes.length>400)pane.removeChild(pane.firstChild);
  pane.scrollTop=pane.scrollHeight;
 }catch(err){}
};
</script></body></html>
`
