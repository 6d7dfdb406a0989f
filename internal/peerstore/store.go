package peerstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/obs"
)

// PathPrefix is the peer-fill endpoint's route: GET PathPrefix +
// hex(fingerprint) returns the serialized artifact or 404.
const PathPrefix = "/v1/analysis/"

// maxArtifactBytes bounds a fetched artifact body. The largest graphs
// the service admits are a few thousand subtasks; their artifacts are
// well under a megabyte, so 16 MiB is pure headroom against a confused
// or malicious peer.
const maxArtifactBytes = 16 << 20

// fetchBucketBounds are the upper bounds (seconds) of the peer-fill
// latency histogram, tuned around intra-pool HTTP round trips.
var fetchBucketBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Config configures a tiered Store.
type Config struct {
	// Local is the first tier. Nil means a fresh LRU of CacheSize
	// entries. It must implement engine.PeerGetter if a custom store
	// is supplied (the default LRU does).
	Local engine.Store
	// CacheSize bounds the default local LRU; zero means the engine
	// default (256).
	CacheSize int
	// Client issues peer fetches. Nil means http.DefaultClient.
	Client *http.Client
	// FetchTimeout bounds one peer fetch attempt. Zero means 5s.
	FetchTimeout time.Duration
	// Peers is the initial peer base-URL set (no trailing slash
	// needed); SetPeers updates it live.
	Peers []string
	// Logf, if set, receives one line per failed or rejected peer
	// fetch. Successful fills are counted, not logged.
	Logf func(format string, args ...any)
}

// Store is the tiered analysis store: local LRU → peer fetch →
// compute (a miss returned to the engine, which then computes under
// its own single-flight). It implements engine.Store, engine.PeerGetter
// and engine.FetchReporter, and is safe for concurrent use.
//
// Accounting: Stats().Hits counts local and peer tier hits — from the
// engine's point of view both served an artifact without computing —
// and Stats().Misses counts only compute falls-through, so an engine's
// miss count remains exactly its compute count, whichever tier fills.
type Store struct {
	local        engine.Store
	client       *http.Client
	fetchTimeout time.Duration
	logf         func(format string, args ...any)

	mu       sync.Mutex
	peers    []string
	fetching map[string]int

	tierLocal   int64
	tierPeer    int64
	tierCompute int64
	peerErrors  int64
	rejected    int64
	fetch       obs.Histogram // seconds, successful fills only
}

// TierStats is a snapshot of the tier counters and the peer-fill
// latency histogram (successful fills only; failures are in PeerErrors
// and Rejected). drhwd's /healthz carries it as JSON, less Fetch.
type TierStats struct {
	// Local, Peer and Compute count Gets by the tier that answered;
	// Compute is the fall-through tier — the engine computed.
	Local   int64 `json:"local"`
	Peer    int64 `json:"peer"`
	Compute int64 `json:"compute"`
	// PeerErrors counts failed fetch attempts (connection, HTTP
	// status, body read), one per peer tried.
	PeerErrors int64 `json:"peer_errors,omitempty"`
	// Rejected counts artifacts that arrived but failed decoding or
	// validation (corrupt, truncated, wrong fingerprint, bad version).
	Rejected int64 `json:"rejected,omitempty"`
	// Fetch holds the successful peer-fill latencies in seconds.
	Fetch obs.Histogram `json:"-"`
}

var (
	_ engine.Store         = (*Store)(nil)
	_ engine.PeerGetter    = (*Store)(nil)
	_ engine.FetchReporter = (*Store)(nil)
)

// New builds a tiered Store.
func New(cfg Config) *Store {
	local := cfg.Local
	if local == nil {
		local = engine.NewLRUStore(cfg.CacheSize)
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	timeout := cfg.FetchTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{
		local:        local,
		client:       client,
		fetchTimeout: timeout,
		logf:         logf,
		fetching:     map[string]int{},
		fetch:        obs.NewHistogram(fetchBucketBounds),
	}
	s.SetPeers(cfg.Peers)
	return s
}

// NormalizeURL is the one spelling of a replica base URL that peer
// sets, the coordinator's pool and its flags compare: surrounding
// whitespace and trailing slashes removed until none is left, so the
// result normalizes to itself. Empty means no URL.
func NormalizeURL(u string) string {
	return strings.TrimRightFunc(strings.TrimSpace(u), func(r rune) bool { return r == '/' || unicode.IsSpace(r) })
}

// SetPeers replaces the peer set (live: the coordinator pushes updated
// pools here via the replica's /v1/peers endpoint). URLs are
// normalized, deduplicated and sorted; empties are dropped.
func (s *Store) SetPeers(peers []string) {
	seen := map[string]bool{}
	var norm []string
	for _, p := range peers {
		p = NormalizeURL(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		norm = append(norm, p)
	}
	sort.Strings(norm)
	s.mu.Lock()
	s.peers = norm
	s.mu.Unlock()
}

// Peers returns the current peer set.
func (s *Store) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.peers...)
}

// GetLocal implements engine.PeerGetter: local tier only, no counters,
// no network — this is what the peer endpoint serves from.
func (s *Store) GetLocal(key string) (*core.Analysis, bool) {
	if pg, ok := s.local.(engine.PeerGetter); ok {
		return pg.GetLocal(key)
	}
	return s.local.Get(key)
}

// Fetching implements engine.FetchReporter.
func (s *Store) Fetching(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetching[key] > 0
}

// Get implements engine.Store: local tier first, then each peer in
// rendezvous order, then a miss (the engine computes). The engine's
// single-flight sits above this store, so at most one Get — and hence
// one peer fetch or compute — is in progress per key per replica.
func (s *Store) Get(key string) (*core.Analysis, bool) {
	if a, ok := s.GetLocal(key); ok {
		s.mu.Lock()
		s.tierLocal++
		s.mu.Unlock()
		return a, true
	}

	s.mu.Lock()
	peers := s.peers
	s.fetching[key]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.fetching[key]--; s.fetching[key] <= 0 {
			delete(s.fetching, key)
		}
		s.mu.Unlock()
	}()

	for _, peer := range rankPeers(peers, key) {
		start := time.Now()
		a, err := s.fetchOne(peer, key)
		if err == errPeerMiss {
			continue
		}
		if err != nil {
			s.mu.Lock()
			if _, rejected := err.(*rejectError); rejected {
				s.rejected++
			} else {
				s.peerErrors++
			}
			s.mu.Unlock()
			s.logf("peerstore: fetch %.12s… from %s: %v", hex.EncodeToString([]byte(key)), peer, err)
			continue
		}
		elapsed := time.Since(start).Seconds()
		s.local.Put(key, a)
		s.mu.Lock()
		s.fetch.Observe(elapsed)
		s.tierPeer++
		s.mu.Unlock()
		return a, true
	}

	s.mu.Lock()
	s.tierCompute++
	s.mu.Unlock()
	return nil, false
}

// Put implements engine.Store.
func (s *Store) Put(key string, a *core.Analysis) { s.local.Put(key, a) }

// Stats implements engine.Store. Hits are local + peer fills; Misses
// are compute falls-through, so an engine over this store reports
// misses == computes exactly as it would over a plain LRU.
func (s *Store) Stats() engine.CacheStats {
	inner := s.local.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return engine.CacheStats{
		Hits:      s.tierLocal + s.tierPeer,
		Misses:    s.tierCompute,
		Evictions: inner.Evictions,
		Entries:   inner.Entries,
	}
}

// TierStats snapshots the tier counters.
func (s *Store) TierStats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TierStats{
		Local:      s.tierLocal,
		Peer:       s.tierPeer,
		Compute:    s.tierCompute,
		PeerErrors: s.peerErrors,
		Rejected:   s.rejected,
		Fetch:      s.fetch.Clone(),
	}
}

// errPeerMiss is the (expected) "peer does not have it" outcome; it is
// neither an error nor a reject in the counters.
var errPeerMiss = fmt.Errorf("peer miss")

// rejectError marks an artifact that arrived but failed validation.
type rejectError struct{ err error }

func (e *rejectError) Error() string { return e.err.Error() }
func (e *rejectError) Unwrap() error { return e.err }

// fetchOne asks a single peer for the artifact under key.
func (s *Store) fetchOne(peer, key string) (*core.Analysis, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+PathPrefix+hex.EncodeToString([]byte(key)), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxArtifactBytes {
		return nil, &rejectError{fmt.Errorf("artifact exceeds %d bytes", maxArtifactBytes)}
	}
	a, err := Decode(key, body)
	if err != nil {
		return nil, &rejectError{err}
	}
	return a, nil
}

// rankPeers orders the peer set by rendezvous hash of (peer, key):
// every replica probes the same key in the same peer order, so the
// pool converges on serving a key from the replicas that actually hold
// it instead of spraying probes randomly.
func rankPeers(peers []string, key string) []string {
	if len(peers) <= 1 {
		return peers
	}
	type ranked struct {
		peer string
		hash uint64
	}
	rs := make([]ranked, 0, len(peers))
	for _, p := range peers {
		h := sha256.Sum256([]byte(p + "\x00" + key))
		rs = append(rs, ranked{p, binary.BigEndian.Uint64(h[:8])})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].hash != rs[j].hash {
			return rs[i].hash > rs[j].hash
		}
		return rs[i].peer < rs[j].peer
	})
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.peer)
	}
	return out
}
