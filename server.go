package fairrank

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/obs"
	"fairrank/internal/service"
)

// Server is the query-serving subsystem as a public API: a sharded registry
// of named designers over named datasets, background index builds with
// status reporting, single and batch suggest paths, drift-triggered
// rebuild-and-swap, per-designer metrics, and index persistence to a data
// directory. cmd/fairrankd wraps it in an http.Server; embedders can mount
// Handler() wherever they like or drive the typed methods directly.
//
// Designers are partitioned by a rendezvous-hash ring (internal/cluster):
// across the in-process shard registries always, and — when ClusterConfig
// names peers — across a fleet of fairrankd nodes, with the HTTP layer
// forwarding any request to the designer's owner. Answers are byte-identical
// regardless of shard count or which node received the request.
//
// All methods are safe for concurrent use; the suggest path reads the
// serving index through one atomic load, so queries never wait on builds.
type Server struct {
	router *cluster.Router
	meta   *cluster.MetaStore

	mu       sync.RWMutex
	datasets map[string]*Dataset
	specs    map[string]DesignerSpec
	pulling  map[string]bool // designer ids with an index handoff/build in flight

	// Dataset mutability (server_patch.go). datasetRevs chains each dataset's
	// revision fingerprint through every applied patch, seeded with the
	// dataset's content fingerprint (under mu); patchMu serializes
	// PatchDataset so concurrent patches chain on one lineage instead of
	// forking it; repairBusy coalesces reconcile's detect-and-patch sweeps.
	datasetRevs map[string]uint64
	patchMu     sync.Mutex
	repairBusy  atomic.Bool

	// Patch metrics (prom.go): datasets patched on this node, designer
	// indexes spliced incrementally vs rebuilt, and the repair latency
	// histogram.
	patchTotal    atomic.Int64
	patchRepairs  atomic.Int64
	patchRebuilds atomic.Int64
	patchDur      patchHist

	// Read replication (docs/REPLICATION.md). replicas holds the sealed index
	// copies this node keeps as a follower; replicaK is the effective
	// replication factor (the -replicas flag, superseded by the gossiped
	// replicas/config entry); cfgReplicas remembers the flag itself so a
	// restart re-originates it above any restored version. replicaRR spreads
	// outside-set reads across the replica set; pushed (under mu) tracks the
	// last generation successfully pushed per (designer, follower) so the
	// owner's sync loop is idempotent; replicaBusy coalesces sync passes.
	replicas    *service.ReplicaStore
	replicaK    atomic.Int64
	cfgReplicas int
	replicaRR   atomic.Uint64
	pushed      map[string]map[string]uint64
	replicaBusy atomic.Bool

	// memberMu serializes membership read-modify-originate (join, leave,
	// force-remove): two concurrent joins through the same node must not
	// both read the old member list and silently drop each other.
	memberMu sync.Mutex
	// applyMu serializes applyEntries batches so Apply-then-materialize is
	// atomic per entry (see applyEntries).
	applyMu   sync.Mutex
	advertise string
	log       *slog.Logger
	logf      func(format string, args ...any)

	// draining flips when this node begins a POST /cluster/leave drain;
	// /healthz then answers 503 {"status":"draining"} so load balancers and
	// peer health probes stop sending new work while indexes hand off.
	draining atomic.Bool

	tracer  *obs.Tracer
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time

	stopOnce sync.Once
	stopc    chan struct{}
}

// ClusterPeer identifies one remote fairrankd node of a cluster.
type ClusterPeer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// ClusterConfig configures the shard layer of a Server. The zero value is a
// single node with one in-process shard — exactly the pre-cluster server.
type ClusterConfig struct {
	// NodeID names this node on the ring (default "node-0"). Every node of
	// one cluster must use a distinct id, and all nodes must agree on the
	// full membership (their own id plus Peers), or they will compute
	// different owners.
	NodeID string
	// Shards is the number of in-process shard registries (default 1).
	Shards int
	// Peers are the other nodes of the cluster.
	Peers []ClusterPeer
	// AdvertiseURL is this node's own HTTP base URL as other members must
	// reach it ("http://host:port"). It names this node in gossiped
	// membership, so it is required on any node that hosts runtime joins
	// or joins a cluster itself; purely static fleets may leave it empty.
	AdvertiseURL string
	// HealthInterval is the period of the background peer health probe;
	// 0 disables the loop (peers are then marked unhealthy only by failed
	// forwards, and never recover).
	HealthInterval time.Duration
	// Replicas is the number of read replicas (followers) kept per designer
	// in addition to its owner — the -replicas flag. 0 disables replication
	// (owner-only serving, the pre-replica behavior). The value is gossiped
	// as the replicas/config metadata entry, so nodes booted without the flag
	// adopt the cluster's value; a node booted WITH the flag re-originates it
	// above every version it has persisted, making the flag authoritative on
	// restart. See docs/REPLICATION.md.
	Replicas int
	// AntiEntropyInterval is the period of the background anti-entropy
	// pass: each tick the node exchanges a versioned metadata digest with
	// one random healthy peer and pulls or pushes whatever differs, so a
	// create or delete issued while a peer was down converges once it
	// returns. 0 disables the pass (metadata then replicates only through
	// the best-effort create fan-out).
	AntiEntropyInterval time.Duration
	// Logf receives cluster lifecycle events (membership changes, index
	// handoffs, fallback rebuilds) as preformatted lines. nil discards them
	// unless Logger is set. Retained for embedders that capture log lines;
	// new code should set Logger.
	Logf func(format string, args ...any)
	// Logger is the node's structured logger (lifecycle events, slow-query
	// records). It takes precedence over Logf; when both are nil, logging is
	// discarded. cmd/fairrankd wires obs.NewLogger so every line carries the
	// node id.
	Logger *slog.Logger
	// TraceBuffer is the capacity of the in-memory ring of recent request
	// traces served at GET /debug/traces (default 256).
	TraceBuffer int
	// SlowQueryThreshold enables the slow-query log for requests at least
	// this slow; 0 disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryEvery samples the slow-query log: log the 1st, (1+N)th,
	// (1+2N)th... slow request. Values <= 1 log every slow request.
	SlowQueryEvery int
}

// NewServer returns an empty single-node server. Call LoadDir to restore
// persisted state.
func NewServer() *Server {
	s, err := NewClusterServer(ClusterConfig{})
	if err != nil {
		// Unreachable: the zero config is always valid.
		panic(err)
	}
	return s
}

// NewClusterServer returns an empty server participating in the configured
// cluster. Call Close to stop its background health loop.
func NewClusterServer(cfg ClusterConfig) (*Server, error) {
	peers := make([]cluster.Member, len(cfg.Peers))
	for i, p := range cfg.Peers {
		peers[i] = cluster.Member{ID: p.ID, URL: p.URL}
	}
	router, err := cluster.NewRouter(cluster.Config{
		NodeID:       cfg.NodeID,
		AdvertiseURL: strings.TrimSuffix(cfg.AdvertiseURL, "/"),
		Shards:       cfg.Shards,
		Peers:        peers,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		router:      router,
		meta:        cluster.NewMetaStore(),
		datasets:    make(map[string]*Dataset),
		datasetRevs: make(map[string]uint64),
		specs:       make(map[string]DesignerSpec),
		pulling:     make(map[string]bool),
		replicas:    service.NewReplicaStore(),
		cfgReplicas: cfg.Replicas,
		pushed:      make(map[string]map[string]uint64),
		advertise:   strings.TrimSuffix(cfg.AdvertiseURL, "/"),
		logf:        cfg.Logf,
		start:       time.Now(),
		stopc:       make(chan struct{}),
	}
	if cfg.Replicas > 0 {
		s.originateReplicaConfig(cfg.Replicas)
	}
	// Logging: one slog.Logger backs both the structured calls (s.log) and
	// the legacy printf-style sites (s.logf). A caller-provided Logger wins;
	// a Logf-only config keeps receiving the same preformatted lines through
	// a bridge handler; neither configured discards.
	switch {
	case cfg.Logger != nil:
		s.log = cfg.Logger
	case cfg.Logf != nil:
		s.log = slog.New(&logfHandler{f: cfg.Logf})
	default:
		s.log = slog.New(slog.DiscardHandler)
	}
	s.logf = func(format string, args ...any) { s.log.Info(fmt.Sprintf(format, args...)) }
	s.tracer = obs.NewTracer(obs.Config{
		Node:          router.NodeID(),
		Buffer:        cfg.TraceBuffer,
		SlowThreshold: cfg.SlowQueryThreshold,
		SlowEvery:     cfg.SlowQueryEvery,
		Logger:        s.log,
	})
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = s.tracer.Middleware(s.mux)
	router.StartHealth(cfg.HealthInterval)
	s.startAntiEntropy(cfg.AntiEntropyInterval)
	return s, nil
}

// logfHandler adapts a printf-style sink to slog for ClusterConfig.Logf
// compatibility: the message followed by " key=value" attribute pairs, one
// line per record.
type logfHandler struct {
	f     func(format string, args ...any)
	attrs []slog.Attr
}

// Enabled reports that every level is logged — the Logf contract had no
// levels.
func (h *logfHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle formats the record onto the printf sink.
func (h *logfHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Message)
	for _, a := range h.attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
	}
	r.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	})
	h.f("%s", b.String())
	return nil
}

// WithAttrs returns a handler that prepends attrs to every record.
func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &logfHandler{f: h.f, attrs: append(append([]slog.Attr(nil), h.attrs...), attrs...)}
}

// WithGroup flattens groups — the printf sink has no nesting.
func (h *logfHandler) WithGroup(string) slog.Handler { return h }

// Close stops the server's background peer health and anti-entropy loops.
// Serving state is untouched; in-flight builds finish on their own
// goroutines.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.router.Close()
}

// shard returns the in-process shard registry that holds id.
func (s *Server) shard(id string) *service.Registry {
	_, reg := s.router.ShardFor(id)
	return reg
}

// ErrUnknownID is returned (wrapped, naming the id) when a dataset or
// designer lookup fails; the HTTP layer maps it to 404.
var ErrUnknownID = errors.New("fairrank: unknown id")

// ErrDuplicateID is returned (wrapped, naming the id) when registering a
// dataset under a taken id; the HTTP layer maps it — like the registry's
// service.ErrDuplicateName for designers — to 409.
var ErrDuplicateID = errors.New("fairrank: id already registered")

// designerEngine adapts a Designer to the service.Engine interface. The
// designer already answers in the service's result shapes, so every method
// is a direct call.
type designerEngine struct{ d *Designer }

func (e *designerEngine) Suggest(w []float64) (*Suggestion, error) { return e.d.Suggest(w) }

func (e *designerEngine) SuggestBatch(ws [][]float64) []BatchResult { return e.d.SuggestBatch(ws) }

// SuggestBatchCtx implements the optional service.ContextBatcher capability:
// the designer records its planner and kernel stages on the request's trace.
func (e *designerEngine) SuggestBatchCtx(ctx context.Context, ws [][]float64) []BatchResult {
	return e.d.SuggestBatchCtx(ctx, ws)
}

func (e *designerEngine) ModeName() string { return e.d.Mode().String() }

// BatchPlanStats implements the optional service.BatchPlanner capability, so
// the planner's decisions surface on /metrics per designer.
func (e *designerEngine) BatchPlanStats() service.BatchPlanStats {
	st := e.d.BatchPlanStats()
	return service.BatchPlanStats{
		Slots:         st.Slots,
		DedupedSlots:  st.DedupedSlots,
		ResumeHits:    st.ResumeHits,
		LastChunkSize: st.LastChunkSize,
	}
}

func (e *designerEngine) SaveIndex(w io.Writer) error { return e.d.SaveIndex(w) }

// validateID accepts the ids used for datasets and designers. Ids become
// file names in the data directory, so path separators and dot-prefixes are
// rejected outright.
func validateID(id string) error {
	if id == "" {
		return errors.New("fairrank: empty id")
	}
	if len(id) > 128 {
		return fmt.Errorf("fairrank: id longer than 128 bytes")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("fairrank: id %q contains %q; allowed: letters, digits, '-', '_', '.'", id, c)
		}
	}
	if id[0] == '.' {
		return fmt.Errorf("fairrank: id %q must not start with a dot", id)
	}
	return nil
}

// Replicated metadata keys: one namespace per entry kind, ordered so that a
// sorted batch applies datasets before the designer specs that reference
// them (and the ring last; see applyEntries).
func metaKeyDataset(id string) string  { return "dataset/" + id }
func metaKeyDesigner(id string) string { return "designer/" + id }

// AddDataset registers a dataset under an id and records it in the
// replicated metadata store, versioned for anti-entropy repair.
func (s *Server) AddDataset(id string, ds *Dataset) error {
	if err := validateID(id); err != nil {
		return err
	}
	if ds == nil {
		return errors.New("fairrank: nil dataset")
	}
	s.mu.Lock()
	if _, dup := s.datasets[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: dataset %q", ErrDuplicateID, id)
	}
	s.datasets[id] = ds
	s.datasetRevs[id] = ds.Fingerprint()
	s.mu.Unlock()
	spec := SpecOfDataset(ds)
	spec.Revision = ds.Fingerprint()
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	s.meta.Put(metaKeyDataset(id), payload)
	return nil
}

// Dataset returns a registered dataset.
func (s *Server) Dataset(id string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[id]
	return ds, ok
}

// DatasetRevision returns a dataset's revision fingerprint: its content
// fingerprint at registration, chained through every applied patch
// (ChainRevision). Two nodes report the same revision exactly when they saw
// the same patch lineage.
func (s *Server) DatasetRevision(id string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rev, ok := s.datasetRevs[id]
	if !ok {
		if ds, has := s.datasets[id]; has {
			return ds.Fingerprint(), true
		}
	}
	return rev, ok
}

// CreateDesigner registers a designer and — when this node owns it on the
// cluster ring — starts its offline build in the background; watch it
// through DesignerStatus or WaitReady. An engine loaded from a persisted
// index (LoadDir) skips the build. On a non-owner node the spec is stored
// dormant: the node can answer by forwarding (HTTP layer) and can build the
// index itself if ownership ever fails over to it.
func (s *Server) CreateDesigner(id string, spec DesignerSpec) error {
	if err := validateID(id); err != nil {
		return err
	}
	build, err := s.builder(spec)
	if err != nil {
		return err
	}
	if !s.router.OwnedLocally(id) {
		s.mu.Lock()
		if _, dup := s.specs[id]; dup {
			s.mu.Unlock()
			return fmt.Errorf("%w: designer %q", ErrDuplicateID, id)
		}
		s.specs[id] = spec
		s.mu.Unlock()
		return s.putDesignerMeta(id, spec)
	}
	// The shard registry is the authority on name collisions; an existing
	// designer's spec must survive a failed duplicate create untouched.
	s.mu.Lock()
	old, had := s.specs[id]
	s.specs[id] = spec
	s.mu.Unlock()
	if _, err := s.shard(id).Create(id, build); err != nil {
		s.mu.Lock()
		if had {
			s.specs[id] = old
		} else {
			delete(s.specs, id)
		}
		s.mu.Unlock()
		return err
	}
	return s.putDesignerMeta(id, spec)
}

// putDesignerMeta records a designer spec in the replicated metadata store —
// but only while that spec is still the current one. A delete (or a
// competing create) that interleaved between the spec store and this call
// must win: blindly Putting here would mint a live version above the
// tombstone and resurrect the designer in metadata while the local spec and
// index stay gone. The losing create evicts whatever entry it landed and
// reports the designer unknown.
func (s *Server) putDesignerMeta(id string, spec DesignerSpec) error {
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	cur, ok := s.specs[id]
	current := ok && reflect.DeepEqual(cur, spec)
	if current {
		s.meta.Put(metaKeyDesigner(id), payload)
	}
	s.mu.Unlock()
	if !current {
		s.shard(id).Remove(id)
		return fmt.Errorf("%w: designer %q (superseded mid-create)", ErrUnknownID, id)
	}
	return nil
}

// DeleteDesigner removes a designer: its spec, its local index (if any), and
// — through the replicated tombstone — every copy on the rest of the
// cluster. The tombstone's version supersedes the live entry, so a peer that
// was down during the delete discards its copy on its next anti-entropy
// exchange instead of resurrecting the designer.
func (s *Server) DeleteDesigner(id string) error {
	s.mu.Lock()
	_, known := s.specs[id]
	s.mu.Unlock()
	if !known {
		if _, held := s.shard(id).Get(id); !held {
			return fmt.Errorf("%w: designer %q", ErrUnknownID, id)
		}
	}
	// Tombstone FIRST, then evict: an activation racing this delete
	// re-checks the tombstone after it lands its entry (localEntry,
	// ensureOwned), so this order guarantees either the Remove below or the
	// racer's own re-check evicts the index — never a spec-less zombie.
	s.meta.Delete(metaKeyDesigner(id))
	// The publication entry follows the designer into deletion (guarded on
	// existence so never-replicated designers don't mint spurious tombstones);
	// followers drop their copies when either tombstone materializes.
	if _, ok := s.meta.Get(cluster.ReplicaMetaKey(id)); ok {
		s.meta.Delete(cluster.ReplicaMetaKey(id))
	}
	s.mu.Lock()
	delete(s.specs, id)
	delete(s.pushed, id)
	s.mu.Unlock()
	s.shard(id).Remove(id)
	s.replicas.Remove(id)
	return nil
}

// builder resolves a spec into the closure the registry runs for the initial
// build and every drift-triggered rebuild. The dataset and oracle are
// validated eagerly — creates fail fast on dangling references and malformed
// specs — but re-resolved inside the closure: datasets are mutable through
// PatchDataset, and a rebuild (drift loop, patch fallback, spec change) must
// build over the dataset as it is at build time, not as it was when the
// designer was created.
func (s *Server) builder(spec DesignerSpec) (service.BuildFunc, error) {
	ds, ok := s.Dataset(spec.Dataset)
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q", ErrUnknownID, spec.Dataset)
	}
	if _, err := spec.Oracle.Build(ds); err != nil {
		return nil, err
	}
	cfg, err := spec.Config.Build()
	if err != nil {
		return nil, err
	}
	return func() (service.Engine, error) {
		ds, ok := s.Dataset(spec.Dataset)
		if !ok {
			return nil, fmt.Errorf("%w: dataset %q", ErrUnknownID, spec.Dataset)
		}
		oracle, err := spec.Oracle.Build(ds)
		if err != nil {
			return nil, err
		}
		d, err := NewDesigner(ds, oracle, cfg)
		if err != nil {
			return nil, err
		}
		return &designerEngine{d: d}, nil
	}, nil
}

// localEntry returns the shard registry entry serving id, activating a
// dormant spec when none exists yet: this is the rebuild-on-owner failover —
// a node that stored a designer's spec as a non-owner starts building the
// index the moment query traffic for it lands here (the owner died, or the
// cluster views disagree and someone must answer). The first queries return
// ErrNotReady (HTTP 503) until the build swaps in.
func (s *Server) localEntry(id string) (*service.Entry, error) {
	reg := s.shard(id)
	if entry, ok := reg.Get(id); ok {
		return entry, nil
	}
	s.mu.RLock()
	spec, known := s.specs[id]
	s.mu.RUnlock()
	if !known {
		return nil, fmt.Errorf("%w: designer %q", ErrUnknownID, id)
	}
	build, err := s.builder(spec)
	if err != nil {
		return nil, err
	}
	// Promote-not-rebuild: a follower that inherited ownership (or must
	// answer anyway) activates its pushed replica copy instead of rebuilding,
	// as long as the copy is not stale. Read traffic can land here before the
	// reconcile tick notices the ownership change, so the check lives on the
	// activation path too, not just in ensureOwned.
	if entry, ok := s.promoteReplica(id, build); ok {
		if s.designerDeleted(id) {
			reg.Remove(id)
			return nil, fmt.Errorf("%w: designer %q", ErrUnknownID, id)
		}
		return entry, nil
	}
	entry, err := reg.Create(id, build)
	if errors.Is(err, service.ErrDuplicateName) {
		// Lost an activation race; the winner's entry serves.
		if entry, ok := reg.Get(id); ok {
			return entry, nil
		}
	}
	if err == nil && s.designerDeleted(id) {
		// A delete tombstoned the designer between the spec read above and
		// the Create; evict the just-activated entry instead of serving a
		// deleted designer.
		reg.Remove(id)
		return nil, fmt.Errorf("%w: designer %q", ErrUnknownID, id)
	}
	return entry, err
}

// designerDeleted reports whether the designer carries a replicated
// tombstone — the re-check activation paths run after landing an entry, so
// a DELETE racing them cannot leave a zombie index serving.
func (s *Server) designerDeleted(id string) bool {
	e, ok := s.meta.Get(metaKeyDesigner(id))
	return ok && e.Deleted
}

// WaitReady blocks until the designer's in-flight build (if any) finishes,
// returning nil once an index is serving. On a non-owner node this
// activates a dormant designer (see localEntry).
func (s *Server) WaitReady(ctx context.Context, id string) error {
	entry, err := s.localEntry(id)
	if err != nil {
		return err
	}
	return entry.WaitReady(ctx)
}

// DesignerStatus reports a designer's lifecycle state and metrics. A
// designer whose spec is known here but which this node does NOT own
// reports StatusRemote — deliberately without starting a build, so metrics
// scrapes never trigger index work for designers other members serve. A
// dormant designer this node DOES own (ownership failed over before any
// query arrived) is activated: building it is now this node's job, and
// status polls — e.g. a peer relaying create?wait=true — must observe the
// build progressing rather than "remote" forever.
func (s *Server) DesignerStatus(id string) (service.StatusInfo, error) {
	if entry, ok := s.shard(id).Get(id); ok {
		return s.stampSpecVersion(entry.Status()), nil
	}
	s.mu.RLock()
	_, known := s.specs[id]
	s.mu.RUnlock()
	if !known {
		return service.StatusInfo{}, fmt.Errorf("%w: designer %q", ErrUnknownID, id)
	}
	if s.router.OwnedLocally(id) {
		if entry, err := s.localEntry(id); err == nil {
			return s.stampSpecVersion(entry.Status()), nil
		}
	}
	return s.stampSpecVersion(service.StatusInfo{Name: id, Status: service.StatusRemote}), nil
}

// stampSpecVersion annotates a status snapshot with the replicated metadata
// version of the designer's spec, so operators can compare convergence
// across nodes (`spec_version` equal everywhere ⇒ anti-entropy has settled).
func (s *Server) stampSpecVersion(info service.StatusInfo) service.StatusInfo {
	if e, ok := s.meta.Get(metaKeyDesigner(info.Name)); ok && !e.Deleted {
		info.SpecVersion = e.Version
	}
	return info
}

// Suggest answers one design query against a designer's serving index.
func (s *Server) Suggest(id string, w []float64) (*Suggestion, error) {
	return s.suggestCtx(context.Background(), id, w)
}

// suggestCtx is the HTTP path's Suggest: when ctx carries a trace recorder,
// the cache and kernel stages land on it.
func (s *Server) suggestCtx(ctx context.Context, id string, w []float64) (*Suggestion, error) {
	entry, err := s.localEntry(id)
	if err != nil {
		return nil, err
	}
	return entry.SuggestCtx(ctx, w)
}

// SuggestBatch answers many queries in one call; see Designer.SuggestBatch.
func (s *Server) SuggestBatch(id string, ws [][]float64) ([]BatchResult, error) {
	return s.suggestBatchCtx(context.Background(), id, ws)
}

func (s *Server) suggestBatchCtx(ctx context.Context, id string, ws [][]float64) ([]BatchResult, error) {
	entry, err := s.localEntry(id)
	if err != nil {
		return nil, err
	}
	return entry.SuggestBatchCtx(ctx, ws)
}

// RevalidateResult is the outcome of a drift check on a serving designer.
type RevalidateResult struct {
	Healthy bool   `json:"healthy"`
	Detail  string `json:"detail"`
	// Rebuilding reports that the drift check failed and a background
	// rebuild-and-swap was started (or was already running).
	Rebuilding bool `json:"rebuilding"`
}

// Revalidate spot-checks a designer's serving index against a dataset
// (default: the one it was built on). When the index no longer holds, a
// background rebuild starts and the old index keeps serving until the new
// one swaps in — the paper's §1 design loop as a serving-system operation.
func (s *Server) Revalidate(id string, datasetID string) (RevalidateResult, error) {
	entry, err := s.localEntry(id)
	if err != nil {
		return RevalidateResult{}, err
	}
	s.mu.RLock()
	spec, ok := s.specs[id]
	s.mu.RUnlock()
	if !ok {
		return RevalidateResult{}, fmt.Errorf("fairrank: designer %q has no spec", id)
	}
	if datasetID == "" {
		datasetID = spec.Dataset
	}
	against, ok := s.Dataset(datasetID)
	if !ok {
		return RevalidateResult{}, fmt.Errorf("%w: dataset %q", ErrUnknownID, datasetID)
	}
	// When checking against a different dataset (today's data vs the one the
	// index was built on), a failed check must rebuild over THAT dataset:
	// repoint the designer's spec and build closure before triggering the
	// rebuild, so the swap serves the new world, not a fresh copy of the
	// stale one.
	repoint := func() error {
		if datasetID == spec.Dataset {
			return nil
		}
		newSpec := spec
		newSpec.Dataset = datasetID
		build, err := s.builder(newSpec)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.specs[id] = newSpec
		s.mu.Unlock()
		entry.SetBuild(build)
		return nil
	}
	healthy, detail, err := entry.Revalidate(func(eng service.Engine) (bool, string, error) {
		de, ok := eng.(*designerEngine)
		if !ok {
			return false, "", fmt.Errorf("fairrank: designer %q serves a foreign engine", id)
		}
		report, err := de.d.Revalidate(against)
		if err != nil {
			return false, "", err
		}
		// "Passed" rather than "satisfactory": for an unsatisfiable index
		// the probes attest the opposite verdict (directions still unfair).
		detail := fmt.Sprintf("%d/%d drift probes passed",
			report.StillSatisfactory, report.Probes)
		if !report.Healthy() {
			if rerr := repoint(); rerr != nil {
				return false, detail, rerr
			}
		}
		return report.Healthy(), detail, nil
	})
	if err != nil {
		return RevalidateResult{}, err
	}
	return RevalidateResult{Healthy: healthy, Detail: detail, Rebuilding: !healthy}, nil
}

// Rebuild forces a background rebuild-and-swap of a designer's index.
func (s *Server) Rebuild(id string) error {
	entry, err := s.localEntry(id)
	if err != nil {
		return err
	}
	return entry.Rebuild()
}

// DesignerIDs returns every designer id known to this node — locally served
// and remote-owned alike — sorted.
func (s *Server) DesignerIDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.specs))
	for id := range s.specs {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// DatasetIDs returns the registered dataset ids, sorted.
func (s *Server) DatasetIDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.datasets))
	for id := range s.datasets {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// SaveDir persists the server's state into dir: every dataset as JSON, every
// known designer's spec manifest (remote-owned ones included, so a restarted
// node can still route or fail over for them), and — for locally served
// designers whose build has finished — the index stream itself, so the next
// startup serves without re-running the offline phase.
func (s *Server) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range s.DatasetIDs() {
		ds, _ := s.Dataset(id)
		spec := SpecOfDataset(ds)
		if rev, ok := s.DatasetRevision(id); ok {
			spec.Revision = rev
		}
		if err := writeJSONFile(filepath.Join(dir, id+".dataset.json"), spec); err != nil {
			return err
		}
	}
	for _, id := range s.DesignerIDs() {
		s.mu.RLock()
		spec, ok := s.specs[id]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		if err := writeJSONFile(filepath.Join(dir, id+".designer.json"), spec); err != nil {
			return err
		}
		entry, ok := s.shard(id).Get(id)
		if !ok {
			continue // dormant (remote-owned): the manifest alone suffices
		}
		eng, err := entry.Engine()
		if err != nil {
			continue // still building or failed: manifest alone triggers a rebuild on load
		}
		if err := writeFileAtomic(filepath.Join(dir, id+".index"), eng.SaveIndex); err != nil {
			return fmt.Errorf("fairrank: saving index of %q: %w", id, err)
		}
	}
	// Deleted designers must stay deleted across a restart: drop the files a
	// previous SaveDir wrote for ids that now carry a tombstone, or the next
	// LoadDir would resurrect them. The version vector (below) additionally
	// persists the tombstones themselves, so even a peer re-offering its
	// stale live copy after our restart cannot resurrect the designer.
	versions := make([]metaVersionRecord, 0, s.meta.Len())
	for _, e := range s.meta.Snapshot() {
		rec := metaVersionRecord{Key: e.Key, Version: e.Version, Deleted: e.Deleted}
		if e.Key == cluster.RingKey || e.Key == cluster.ReplicaConfigKey ||
			strings.HasPrefix(e.Key, cluster.ReplicaKeyPrefix) {
			// The membership, replica-config, and publication payloads are
			// tiny and have no manifest file of their own; persisting them
			// whole lets a restarted node resume on its last known ring and
			// replication state (and at their versions, so entries it
			// originates are not silently ignored by peers).
			rec.Payload = e.Payload
		}
		versions = append(versions, rec)
		if !e.Deleted || !strings.HasPrefix(e.Key, "designer/") {
			continue
		}
		id := strings.TrimPrefix(e.Key, "designer/")
		os.Remove(filepath.Join(dir, id+".designer.json"))
		os.Remove(filepath.Join(dir, id+".index"))
	}
	return writeJSONFile(filepath.Join(dir, clusterMetaFile), versions)
}

// clusterMetaFile persists the replicated-metadata version vector alongside
// the data-dir manifests. Without it a restart would re-Put every loaded
// spec at version 1, below any tombstone or newer version the rest of the
// cluster holds — and a designer re-created after the restart would be
// silently deleted by the next anti-entropy exchange.
const clusterMetaFile = "cluster-meta.json"

// metaVersionRecord is one persisted (key, version, tombstone) triple.
// Payload is carried only for the membership entry, whose bytes live
// nowhere else in the data dir.
type metaVersionRecord struct {
	Key     string          `json:"key"`
	Version uint64          `json:"version"`
	Deleted bool            `json:"deleted,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// LoadDir restores SaveDir state: datasets first, then designers — from
// their index file when present and loadable (serving immediately), falling
// back to a background rebuild from the manifest otherwise.
func (s *Server) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".dataset.json")
		if !ok {
			continue
		}
		var spec DatasetSpec
		if err := readJSONFile(filepath.Join(dir, e.Name()), &spec); err != nil {
			return err
		}
		ds, err := spec.Build()
		if err != nil {
			return fmt.Errorf("fairrank: dataset %q: %w", id, err)
		}
		if err := s.AddDataset(id, ds); err != nil {
			return err
		}
		if spec.Revision != 0 && spec.Revision != ds.Fingerprint() {
			// The dataset was patched before the save: restore the revision
			// lineage (AddDataset seeded the content fingerprint) and re-record
			// the spec so the replicated entry carries it too.
			s.mu.Lock()
			s.datasetRevs[id] = spec.Revision
			s.mu.Unlock()
			if payload, merr := json.Marshal(spec); merr == nil {
				s.meta.Put(metaKeyDataset(id), payload)
			}
		}
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".designer.json")
		if !ok {
			continue
		}
		var spec DesignerSpec
		if err := readJSONFile(filepath.Join(dir, e.Name()), &spec); err != nil {
			return err
		}
		if err := s.loadDesigner(dir, id, spec); err != nil {
			return err
		}
	}
	// Lift the re-Put entries (all at version 1 now) back to their persisted
	// versions and recreate tombstones, so this replica rejoins anti-entropy
	// where it left off instead of below the rest of the cluster. Records
	// that carry payload bytes (the membership) are applied whole, restoring
	// the last known ring at its version.
	var versions []metaVersionRecord
	if err := readJSONFile(filepath.Join(dir, clusterMetaFile), &versions); err == nil {
		for _, r := range versions {
			if len(r.Payload) > 0 {
				s.applyEntries([]cluster.MetaEntry{{
					Key: r.Key, Version: r.Version, Deleted: r.Deleted, Payload: r.Payload,
				}})
				continue
			}
			s.meta.Restore(r.Key, r.Version, r.Deleted)
		}
	}
	// A node booted with -replicas set re-originates the factor ABOVE every
	// restored version, so restarting a node with a new flag value is the
	// supported way to change k cluster-wide (the higher version wins the
	// gossip merge everywhere).
	if s.cfgReplicas > 0 {
		s.originateReplicaConfig(s.cfgReplicas)
	}
	return nil
}

// loadDesigner restores one designer: from its persisted index when this
// node owns it and the stream loads cleanly against the dataset
// (fingerprint checked), otherwise by scheduling a fresh background build.
// A designer owned by another cluster member is restored as a dormant spec
// only — the owner serves it, and this node keeps the spec for routing and
// failover.
func (s *Server) loadDesigner(dir, id string, spec DesignerSpec) error {
	build, err := s.builder(spec)
	if err != nil {
		return fmt.Errorf("fairrank: designer %q: %w", id, err)
	}
	s.mu.Lock()
	s.specs[id] = spec
	s.mu.Unlock()
	if err := s.putDesignerMeta(id, spec); err != nil {
		return err
	}
	if !s.router.OwnedLocally(id) {
		return nil
	}
	path := filepath.Join(dir, id+".index")
	if raw, err := os.ReadFile(path); err == nil {
		ds, _ := s.Dataset(spec.Dataset)
		oracle, oerr := spec.Oracle.Build(ds)
		var d *Designer
		if oerr == nil {
			d, oerr = LoadDesigner(bytes.NewReader(raw), ds, oracle)
		}
		if oerr == nil {
			// Re-arm the loaded designer with its build configuration so a
			// later PatchDataset can honor its churn threshold (a loaded index
			// has no retained build state, so its first patch rebuilds either
			// way — but with the right Config, not the zero value).
			if cfg, cerr := spec.Config.Build(); cerr == nil {
				d.RestoreConfig(cfg)
			}
			// Auto-migrate: a store in the PR-2 gob format is re-saved flat
			// right after it loads, so the slow decode is paid exactly once
			// per store, not on every restart.
			if IsLegacyIndexStream(raw) {
				if werr := writeFileAtomic(path, d.SaveIndex); werr != nil {
					s.logf("fairrank: designer %q: legacy index loaded but re-save failed: %v", id, werr)
				} else {
					s.logf("fairrank: designer %q: migrated legacy index to flat format", id)
				}
			}
			_, rerr := s.shard(id).CreateReady(id, &designerEngine{d: d}, build)
			return rerr
		}
		// Corrupt or mismatched index: fall through to a rebuild.
	}
	_, err = s.shard(id).Create(id, build)
	return err
}

// ClusterStatus reports this node's view of the cluster: ring membership
// with health, which member owns each known designer, and a per-shard
// metrics rollup — the body of GET /cluster.
func (s *Server) ClusterStatus() ClusterStatus {
	ids := s.DesignerIDs()
	k := s.replicaFactor()
	owned := make(map[string][]string)      // member id → designer ids
	replicaFor := make(map[string][]string) // member id → designer ids it follows
	for _, id := range ids {
		owner := s.router.Owner(id).ID
		owned[owner] = append(owned[owner], id)
		if k > 0 {
			for _, f := range s.router.ReplicaSet(id, k)[1:] {
				replicaFor[f.ID] = append(replicaFor[f.ID], id)
			}
		}
	}
	status := ClusterStatus{
		NodeID:      s.router.NodeID(),
		RingVersion: s.router.RingVersion(),
		MetaEntries: s.meta.Len(),
		Replicas:    k,
	}
	for _, m := range s.router.Members() {
		ms := MemberStatus{ID: m.ID, URL: m.URL, Self: m.ID == s.router.NodeID(),
			Healthy: true, Designers: owned[m.ID], ReplicaFor: replicaFor[m.ID]}
		for _, p := range s.router.Peers() {
			if p.Member().ID == m.ID {
				ms.Healthy = p.Healthy()
				ms.LastError, _ = p.LastError()
				break
			}
		}
		status.Members = append(status.Members, ms)
	}
	for i, reg := range s.router.Shards() {
		status.Shards = append(status.Shards, ShardStatus{
			Index:     i,
			Designers: reg.Names(),
			Stats:     reg.Stats(),
		})
	}
	return status
}

// writeFileAtomic writes through a temp file and renames it into place, so
// a crash or full disk mid-save never truncates the previous good copy —
// the next startup can always load something.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(v)
	})
}

func readJSONFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}
