package fairrank

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/obs"
	"fairrank/internal/service"
)

// The fairrankd HTTP JSON API, mounted on Server.Handler():
//
//	POST /v1/datasets                     {"id": ..., "dataset": DatasetSpec}
//	GET  /v1/datasets                     → {"datasets": [ids]}
//	PATCH /v1/datasets/{id}               {"remove": [indices], "add": [{"row": [...], "types": {...}}]}
//	                                        → applies the delta, splices every local designer index
//	                                        (incremental repair below the churn threshold, rebuild
//	                                        above), replicates the new revision cluster-wide
//	POST /v1/designers                    {"id": ..., "spec": DesignerSpec}
//	GET  /v1/designers                    → {"designers": [ids]}
//	GET  /v1/designers/{id}/status        → service.StatusInfo
//	POST /v1/designers/{id}/suggest       {"weights": [...]} or {"batch": [[...], ...]}
//	POST /v1/designers/{id}/revalidate    {"dataset": optional id}
//	DELETE /v1/designers/{id}             → replicated tombstone delete
//	GET  /cluster                         → ClusterStatus (ring, health, per-shard rollup)
//	GET  /metrics                         → per-designer counters + latency histograms (JSON);
//	                                        ?format=prometheus (or Accept: text/plain /
//	                                        openmetrics) → Prometheus text exposition
//	GET  /debug/traces                    → recent request traces (ring buffer; ?id= filters)
//	GET  /healthz                         → {"status": "ok"}; 503 {"status": "draining"}
//	                                        once a POST /cluster/leave drain began
//
// Every request (except /healthz and /debug/*) runs under a trace: the id is
// inherited from the X-Fairrank-Trace header or generated, per-stage spans
// (decode, forward, cache, planner, kernel) are recorded, and a forwarded
// hop returns its spans to the forwarder in an X-Fairrank-Spans trailer —
// one coherent trace per cross-node request, browsable at /debug/traces.
//
// Cluster-internal endpoints (also callable by operators):
//
//	POST /cluster/join                    {"id": ..., "url": ...} → membership MetaEntry
//	POST /cluster/leave                   {"id": ...} — drain (self) or force-remove (other)
//	POST /cluster/digest                  Digest → DigestResponse (anti-entropy exchange)
//	POST /cluster/meta                    {"entries": [MetaEntry]} → apply (replication push)
//	GET  /cluster/handoff/{id}            → persisted index stream (octet-stream)
//	POST /cluster/handoff/{id}            index stream → load + activate without rebuild
//
// In a cluster, any node accepts any request: per-designer calls are
// forwarded to the designer's ring owner, and metadata mutations (create,
// delete) replicate to every peer as versioned entries, with a periodic
// anti-entropy digest exchange repairing whatever the fan-out missed. A
// request carrying the X-Fairrank-Forwarded header is always handled
// locally, so disagreeing ring views bounce a request at most once.

// Handler returns the HTTP API, wrapped in the tracing middleware. It is
// safe to mount alongside other routes.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("PATCH /v1/datasets/{id}", s.handlePatchDataset)
	s.mux.HandleFunc("POST /v1/designers", s.handleCreateDesigner)
	s.mux.HandleFunc("GET /v1/designers", s.handleListDesigners)
	s.mux.HandleFunc("GET /v1/designers/{id}/status", s.handleDesignerStatus)
	s.mux.HandleFunc("POST /v1/designers/{id}/suggest", s.handleSuggest)
	s.mux.HandleFunc("POST /v1/designers/{id}/revalidate", s.handleRevalidate)
	s.mux.HandleFunc("DELETE /v1/designers/{id}", s.handleDeleteDesigner)
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	s.mux.HandleFunc("POST /cluster/join", s.handleJoin)
	s.mux.HandleFunc("POST /cluster/leave", s.handleLeave)
	s.mux.HandleFunc("POST /cluster/digest", s.handleDigest)
	s.mux.HandleFunc("POST /cluster/meta", s.handleMeta)
	s.mux.HandleFunc("GET /cluster/handoff/{id}", s.handleHandoffGet)
	s.mux.HandleFunc("POST /cluster/handoff/{id}", s.handleHandoffPut)
	s.mux.HandleFunc("POST /cluster/replica/{id}", s.handleReplicaPut)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// handleHealthz answers liveness probes. A draining node (POST
// /cluster/leave in progress) reports 503 {"status":"draining"}: load
// balancers and the peer health probe then stop routing new work to it
// while its indexes hand off.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDebugTraces dumps the bounded ring of recent traces, newest first.
// ?id= filters to one trace id (e.g. the one a client set via the
// X-Fairrank-Trace header).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	traces, total := s.tracer.Traces()
	if id := r.URL.Query().Get("id"); id != "" {
		filtered := make([]obs.Trace, 0, 4)
		for _, t := range traces {
			if t.ID == id {
				filtered = append(filtered, t)
			}
		}
		traces = filtered
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node_id":        s.router.NodeID(),
		"total_recorded": total,
		"traces":         traces,
	})
}

// writeJSON encodes v before committing the status, so a value encoding/json
// cannot represent turns into a 500 with the reason instead of the status
// code with an empty body. The body is what json.Encoder writes: the
// encoding plus a newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(appendErrorBody(nil, err.Error()))
}

// errorStatus maps serving errors onto HTTP status codes. Revalidate used to
// map ErrUnsupportedMode to 409 for non-2D designers; every engine now
// implements the drift check, so that path is gone and
// POST /v1/designers/{id}/revalidate succeeds for all three modes.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicateID), errors.Is(err, service.ErrDuplicateName):
		return http.StatusConflict
	case errors.Is(err, service.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnsatisfiable):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// maxBodyBytes bounds every request body.
const maxBodyBytes = 64 << 20

// maxUpfrontBody bounds the buffer readBody allocates from a declared
// Content-Length before any body byte has arrived: a client that declares a
// huge body and trickles it holds no more memory than it has sent.
const maxUpfrontBody = 1 << 20

// readBody buffers the (bounded) request body so handlers can both decode it
// locally and hand the identical bytes to a forward or replication call.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var raw []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		raw, err = readDeclared(body, int(n))
	} else {
		raw, err = io.ReadAll(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return raw, true
}

// readDeclared reads a body of declared length n (the server frames the body
// by Content-Length). A body of at most maxUpfrontBody bytes lands in one
// buffer of exactly its size, instead of io.ReadAll's doubling; a larger one
// starts there and grows only as its bytes arrive.
func readDeclared(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxUpfrontBody))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), n-len(buf)))
		}
		end := min(cap(buf), n)
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// decodeRaw decodes a buffered body, answering 400 on malformed JSON.
func decodeRaw(w http.ResponseWriter, body []byte, v any) bool {
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// forwardToOwner proxies a per-designer request to the cluster member that
// owns id, returning true when the response has been written. Single-node
// servers and already-forwarded requests are always served locally. A
// transport failure (nothing written yet) marks the peer down and retries
// against the recomputed owner — which may be this node: the caller then
// serves locally, activating the designer's dormant spec (rebuild-on-owner
// failover).
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, id string, body []byte) bool {
	if s.router.SingleNode() || r.Header.Get(cluster.ForwardHeader) != "" {
		return false
	}
	rec := obs.FromContext(r.Context())
	for {
		peer, ok := s.router.RemoteOwner(id)
		if !ok {
			return false
		}
		sp := rec.Start("forward")
		if err := peer.Forward(w, r, s.router.NodeID(), body); err != nil {
			sp.EndNote("failed peer=" + peer.Member().ID)
			if r.Context().Err() != nil {
				// The requester itself is gone (disconnect or deadline) —
				// that is not evidence against the peer, so don't poison
				// its health; there is nobody left to answer anyway.
				return true
			}
			peer.MarkUnhealthy(err)
			continue
		}
		// Forward merged the remote hop's trailer spans into rec already.
		sp.EndNote("peer=" + peer.Member().ID)
		return true
	}
}

// replicateMetaKey fans the current versioned entry for key out to every
// healthy peer — the metadata-everywhere/indexes-on-owner model: each node
// stores every dataset and designer spec, but only a designer's ring owner
// builds and serves its index. The fan-out is best-effort; a peer that is
// down misses it and is repaired by the next anti-entropy exchange (no
// operator action needed).
func (s *Server) replicateMetaKey(ctx context.Context, key string) {
	if e, ok := s.meta.Get(key); ok {
		// Detached from the requester's cancellation (inside
		// replicateEntries): a client that disconnects right after POSTing
		// a create must not abort the fan-out half-way, or get healthy
		// peers marked down for its own context error.
		s.replicateEntries(ctx, []cluster.MetaEntry{e})
	}
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		ID      string      `json:"id"`
		Dataset DatasetSpec `json:"dataset"`
	}
	if !decodeRaw(w, body, &req) {
		return
	}
	ds, err := req.Dataset.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	err = s.AddDataset(req.ID, ds)
	if err != nil && !errors.Is(err, ErrDuplicateID) {
		writeError(w, errorStatus(err), err)
		return
	}
	// A duplicate still replicates the stored entry: cluster-wide the create
	// is idempotent, and pushing the current version to peers immediately is
	// cheaper than waiting for the next anti-entropy round to repair them.
	if r.Header.Get(cluster.ForwardHeader) == "" {
		s.replicateMetaKey(r.Context(), metaKeyDataset(req.ID))
	}
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": req.ID, "n": ds.N(), "d": ds.D()})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.DatasetIDs()})
}

// patchDatasetRequest is the body of PATCH /v1/datasets/{id}: pre-patch item
// indices to remove (strictly ascending) and items to append.
type patchDatasetRequest struct {
	Remove []int           `json:"remove,omitempty"`
	Add    []patchItemSpec `json:"add,omitempty"`
}

// patchItemSpec is one appended item: its scoring row and a label for every
// type attribute of the dataset.
type patchItemSpec struct {
	Row   []float64         `json:"row"`
	Types map[string]string `json:"types,omitempty"`
}

// handlePatchDataset mutates a dataset in place, cluster-wide. Any node takes
// the patch — datasets have no owner; every node holds a copy — applies it
// locally (splicing the designer indexes it serves), and replicates the
// patched spec so every peer converges by running the same splice. A patch
// through a non-owner therefore reaches the designer's owner via the metadata
// channel, not request forwarding.
func (s *Server) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req patchDatasetRequest
	if !decodeRaw(w, body, &req) {
		return
	}
	delta := DatasetDelta{Removed: req.Remove}
	for _, it := range req.Add {
		delta.Added = append(delta.Added, PatchItem{Row: it.Row, Types: it.Types})
	}
	res, err := s.PatchDataset(id, delta)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	if r.Header.Get(cluster.ForwardHeader) == "" {
		s.replicateMetaKey(r.Context(), metaKeyDataset(id))
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCreateDesigner(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		ID   string       `json:"id"`
		Spec DesignerSpec `json:"spec"`
	}
	if !decodeRaw(w, body, &req) {
		return
	}
	err := s.CreateDesigner(req.ID, req.Spec)
	duplicate := errors.Is(err, ErrDuplicateID) || errors.Is(err, service.ErrDuplicateName)
	if err != nil && !duplicate {
		writeError(w, errorStatus(err), err)
		return
	}
	forwarded := r.Header.Get(cluster.ForwardHeader) != ""
	if !forwarded {
		// Every node stores the spec; the ring owner (possibly a peer that
		// just received this replica) starts the build. Duplicates replicate
		// the stored entry too, so a peer that lost its copy is repaired
		// immediately instead of at the next anti-entropy round.
		s.replicateMetaKey(r.Context(), metaKeyDesigner(req.ID))
	}
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	// ?wait=true blocks until the offline build finishes — convenient for
	// small datasets and scripted demos; production callers poll status.
	wait := r.URL.Query().Get("wait") == "true" && !forwarded
	st, err := s.designerStatusWait(r.Context(), req.ID, wait)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// designerStatusWait returns a designer's status, optionally blocking until
// its build finished; a remote-owned designer is polled on its owner, so
// create?wait=true behaves the same no matter which node took the create —
// including the failure shape: a failed build surfaces as an error (HTTP
// 500) whether it ran here or on the owner.
func (s *Server) designerStatusWait(ctx context.Context, id string, wait bool) (service.StatusInfo, error) {
	for {
		peer, remote := s.router.RemoteOwner(id)
		var st service.StatusInfo
		var err error
		if remote {
			err = peer.GetJSON(ctx, "/v1/designers/"+id+"/status", s.router.NodeID(), &st)
			if err != nil {
				var se *cluster.StatusError
				if errors.As(err, &se) {
					// The peer answered (e.g. 404 after losing its state):
					// an application-level condition, not unhealthiness.
					return st, err
				}
				if ctx.Err() != nil {
					return st, ctx.Err()
				}
				peer.MarkUnhealthy(err)
				continue // recompute the owner; may fail over to self
			}
		} else if st, err = s.DesignerStatus(id); err != nil {
			return st, err
		}
		if wait && st.Status == service.StatusFailed {
			return st, fmt.Errorf("fairrank: designer %q build failed: %s", id, st.Error)
		}
		if !wait || st.Status == service.StatusReady || st.Status == service.StatusFailed {
			return st, nil
		}
		if !remote {
			if err := s.WaitReady(ctx, id); err != nil {
				return st, err
			}
			continue
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (s *Server) handleListDesigners(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"designers": s.DesignerIDs()})
}

func (s *Server) handleDesignerStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardToOwner(w, r, id, nil) {
		return
	}
	st, err := s.DesignerStatus(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := obs.FromContext(r.Context())
	rec.SetTarget(id)
	sp := rec.Start("decode")
	body, ok := readBody(w, r)
	sp.End()
	if !ok {
		return
	}
	if s.routeSuggest(w, r, id, body) {
		return
	}
	req, ok := readSuggestRequest(w, body)
	if !ok {
		return
	}
	if req.Weights != nil {
		sug, err := s.suggestCtx(r.Context(), id, req.Weights)
		if err != nil {
			writeError(w, errorStatus(err), err)
			return
		}
		sp = rec.Start("encode")
		writeSuggestion(w, sug)
		sp.End()
		return
	}
	results, err := s.suggestBatchCtx(r.Context(), id, req.Batch)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	sp = rec.Start("encode")
	writeResults(w, results)
	sp.End()
}

// readSuggestRequest decodes a suggest body that holds exactly one of
// "weights" and "batch", answering 400 itself otherwise.
func readSuggestRequest(w http.ResponseWriter, body []byte) (suggestRequest, bool) {
	req, err := decodeSuggest(body)
	switch {
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
	case req.Weights != nil && req.Batch != nil:
		writeError(w, http.StatusBadRequest, errors.New(`"weights" and "batch" are mutually exclusive`))
	case req.Weights == nil && req.Batch == nil:
		writeError(w, http.StatusBadRequest, errors.New(`body needs "weights" or "batch"`))
	default:
		return req, true
	}
	return req, false
}

func (s *Server) handleRevalidate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if s.forwardToOwner(w, r, id, body) {
		return
	}
	var req struct {
		Dataset string `json:"dataset"`
	}
	if !decodeRaw(w, body, &req) {
		return
	}
	res, err := s.Revalidate(id, req.Dataset)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleCluster reports this node's ring view, ownership map, and per-shard
// metrics rollup.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterStatus())
}

// handleDeleteDesigner removes a designer cluster-wide: a replicated
// tombstone evicts the spec (and index) from every member, and stops a peer
// that was down during the delete from resurrecting the designer later.
func (s *Server) handleDeleteDesigner(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.DeleteDesigner(id)
	if err != nil && !errors.Is(err, ErrUnknownID) {
		writeError(w, errorStatus(err), err)
		return
	}
	// Like creates, deletes replicate even when this node never knew the id:
	// the tombstone may still be news to a peer. An id with no tombstone
	// recorded (never existed anywhere) replicates nothing.
	if r.Header.Get(cluster.ForwardHeader) == "" {
		s.replicateMetaKey(r.Context(), metaKeyDesigner(id))
	}
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleJoin admits a new member at runtime: it originates a membership with
// the joiner added, fans it out to the existing peers, and answers with the
// membership entry so the joiner can adopt the ring immediately. The
// joiner's subsequent anti-entropy exchange pulls all metadata; designers it
// now owns are then activated by index handoff from their previous owners.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New(`join needs "id" and "url"`))
		return
	}
	if err := validateID(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == s.router.NodeID() {
		// A node cannot join through itself — and accepting it would let a
		// single malformed request rewrite this node's advertised URL
		// cluster-wide.
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("fairrank: %q is this node's own id", req.ID))
		return
	}
	if u, err := url.Parse(req.URL); err != nil ||
		(u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("fairrank: join url %q is not an http(s) base URL", req.URL))
		return
	}
	if s.advertise == "" {
		writeError(w, http.StatusUnprocessableEntity,
			errors.New("fairrank: this node has no AdvertiseURL and cannot host joins"))
		return
	}
	joinURL := strings.TrimSuffix(req.URL, "/")
	s.memberMu.Lock()
	members := s.router.Members()
	found := false
	for i, m := range members {
		if m.ID == req.ID {
			members[i].URL = joinURL // re-join with a new address
			found = true
		}
	}
	if !found {
		members = append(members, cluster.Member{ID: req.ID, URL: joinURL})
	}
	entry, err := s.originateMembership(members)
	s.memberMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.replicateEntries(r.Context(), []cluster.MetaEntry{entry})
	s.logf("cluster: node %s joined via this node (membership v%d)", req.ID, entry.Version)
	writeJSON(w, http.StatusOK, entry)
}

// handleLeave removes a member from the ring. Addressed to the leaving node
// itself it is a graceful drain — indexes are handed to their next owners
// first (LeaveCluster). Addressed to any other node it is a forced removal
// for a member that is already dead: ownership moves immediately and the new
// owners fall back to rebuilding whatever they cannot pull from a live peer.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, errors.New(`leave needs "id"`))
		return
	}
	if req.ID == s.router.NodeID() {
		if err := s.LeaveCluster(r.Context()); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"left": req.ID, "drained": true})
		return
	}
	if s.advertise == "" {
		// The originated membership names this node; without an advertise
		// URL every peer would reject the entry (members need URLs) after
		// already consuming its version — permanently diverging ring views.
		// Same guard as handleJoin.
		writeError(w, http.StatusUnprocessableEntity,
			errors.New("fairrank: this node has no AdvertiseURL and cannot originate membership"))
		return
	}
	s.memberMu.Lock()
	var members []cluster.Member
	removed := false
	for _, m := range s.router.Members() {
		if m.ID == req.ID {
			removed = true
			continue
		}
		members = append(members, m)
	}
	if !removed {
		s.memberMu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"left": req.ID, "already_absent": true})
		return
	}
	entry, err := s.originateMembership(members)
	s.memberMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.replicateEntries(r.Context(), []cluster.MetaEntry{entry})
	s.logf("cluster: node %s force-removed from the ring (membership v%d)", req.ID, entry.Version)
	writeJSON(w, http.StatusOK, map[string]any{"left": req.ID})
}

// handleDigest answers one anti-entropy exchange: given the caller's digest,
// respond with the entries the caller is missing and the keys it should push
// back (see cluster.MetaStore.Diff).
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	var d cluster.Digest
	if !decodeBody(w, r, &d) {
		return
	}
	// The caller's digest doubles as tombstone acknowledgement: every local
	// tombstone it lists at the same version is replicated over there.
	s.meta.ObserveDigest(r.Header.Get(cluster.ForwardHeader), d)
	writeJSON(w, http.StatusOK, s.meta.Diff(d))
}

// handleMeta applies pushed metadata entries — the replication fan-out for
// originated writes and the push leg of an anti-entropy exchange. Applying
// is idempotent and never fans out further, so replication cannot loop.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Entries []cluster.MetaEntry `json:"entries"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	applied := s.applyEntries(req.Entries)
	writeJSON(w, http.StatusOK, map[string]any{"applied": applied})
}

// handleHandoffGet streams the persisted index of a locally served designer
// (universal header + engine payload, exactly the SaveIndex bytes) to a
// member that now owns it. ?offset=N skips the first N stream bytes —
// the resume leg of a broken pull; serialization is deterministic, so the
// skipped prefix is byte-identical to what the puller already holds. 404 —
// no entry here, or still building — tells the caller to fall back to
// rebuilding.
func (s *Server) handleHandoffGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		eng service.Engine
		gen uint64
	)
	if entry, ok := s.shard(id).Get(id); ok {
		e, err := entry.Engine()
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("designer %q has no servable index here: %w", id, err))
			return
		}
		eng, gen = e, entry.Generation()
	} else if rep, ok := s.replicas.Get(id); ok {
		// A follower's replica copy is the same sealed bytes the owner
		// pushed — good enough to hand off from when the old owner is gone.
		eng, gen = rep.Engine, rep.Generation
	} else {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: no index for designer %q on this node", ErrUnknownID, id))
		return
	}
	var offset int64
	if q := r.URL.Query().Get("offset"); q != "" {
		var err error
		offset, err = strconv.ParseInt(q, 10, 64)
		if err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", q))
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if gen > 0 {
		w.Header().Set(cluster.GenerationHeader, strconv.FormatUint(gen, 10))
	}
	cw := &obs.CountingWriter{W: w}
	err := eng.SaveIndex(&skipWriter{w: cw, skip: offset})
	s.router.Stats().HandoffBytesOut.Add(cw.N())
	if err != nil {
		// Headers are gone; the truncated stream fails the loader's header
		// or payload decode and the puller falls back to rebuilding.
		s.logf("cluster: handoff stream of %q failed: %v", id, err)
	}
}

// skipWriter discards the first skip bytes written through it and passes the
// rest along — how the handoff endpoint serves a stream suffix without the
// engines knowing about offsets.
type skipWriter struct {
	w    io.Writer
	skip int64
}

func (sw *skipWriter) Write(p []byte) (int, error) {
	n := len(p)
	if sw.skip > 0 {
		if int64(n) <= sw.skip {
			sw.skip -= int64(n)
			return n, nil
		}
		p = p[sw.skip:]
		sw.skip = 0
	}
	if _, err := sw.w.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}

// handleHandoffPut receives a pushed index stream (a draining node handing
// off before it leaves) and activates it without a rebuild. The designer's
// spec must already be known here — metadata replicates ahead of indexes.
func (s *Server) handleHandoffPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	spec, known := s.specs[id]
	s.mu.RUnlock()
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: designer %q (push metadata before indexes)", ErrUnknownID, id))
		return
	}
	build, err := s.builder(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	cr := &obs.CountingReader{R: http.MaxBytesReader(w, r.Body, 1<<30)}
	d, err := s.loadDesignerStream(cr, spec)
	s.router.Stats().HandoffBytesIn.Add(cr.N())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	gen, _ := strconv.ParseUint(r.Header.Get(cluster.GenerationHeader), 10, 64)
	if _, err := s.shard(id).CreateReadyGen(id, &designerEngine{d: d}, build, gen); err != nil {
		// An entry already serves (duplicate push, or a build won the race);
		// the pushed copy is redundant, not wrong.
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "loaded": false})
		return
	}
	if s.designerDeleted(id) {
		// Same post-landing re-check as localEntry and ensureOwned: a
		// DELETE racing this push must not leave a zombie index serving.
		s.shard(id).Remove(id)
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: designer %q was deleted", ErrUnknownID, id))
		return
	}
	s.logf("cluster: handoff: designer %q index received from %s (no rebuild)",
		id, r.Header.Get(cluster.ForwardHeader))
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "loaded": true})
}

// handleMetrics exposes per-designer query counters and latency histograms.
// The default is an expvar-style JSON document (stdlib only,
// scrape-friendly) with a cluster section (gossip, handoff, forwards, peer
// health); ?format=prometheus — or an Accept header naming text/plain or
// openmetrics — switches to the Prometheus text exposition of the same
// counters (see prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.writePrometheus(w)
		return
	}
	designers := make(map[string]service.StatusInfo)
	for _, id := range s.DesignerIDs() {
		if st, err := s.DesignerStatus(id); err == nil {
			designers[id] = st
		}
	}
	clusterStatus := s.ClusterStatus()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"datasets":       len(s.DatasetIDs()),
		"designers":      designers,
		"node_id":        clusterStatus.NodeID,
		"shards":         clusterStatus.Shards,
		"cluster":        s.clusterMetrics(),
		"patches": map[string]int64{
			"datasets":          s.patchTotal.Load(),
			"designer_repairs":  s.patchRepairs.Load(),
			"designer_rebuilds": s.patchRebuilds.Load(),
		},
	})
}

// wantsPrometheus decides the /metrics representation: an explicit ?format=
// wins; otherwise an Accept header asking for text/plain or openmetrics (how
// a Prometheus scraper introduces itself) selects the text exposition. The
// default stays JSON, so existing scrapes and curl keep their format
// (curl sends Accept: */*, which matches neither).
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "openmetrics", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") || strings.Contains(accept, "text/plain")
}
