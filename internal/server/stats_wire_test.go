package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// fetchStats decodes a server's /stats body generically, so the test sees
// the keys on the wire rather than the Go fields behind them.
func fetchStats(t *testing.T, base string) any {
	t.Helper()
	code, body := get(t, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad /stats body %s: %v", body, err)
	}
	return v
}

// keysAt returns the sorted keys of the JSON object at path under v, nil
// when there is no object there. A numeric path element indexes an array.
func keysAt(v any, path ...any) []string {
	for _, p := range path {
		switch p := p.(type) {
		case string:
			m, _ := v.(map[string]any)
			v = m[p]
		case int:
			a, _ := v.([]any)
			if p >= len(a) {
				return nil
			}
			v = a[p]
		}
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricFamilies returns the sorted family names srv's /metrics declares.
func metricFamilies(t *testing.T, srv *Server) []string {
	t.Helper()
	ms := httptest.NewServer(srv.MetricsHandler())
	defer ms.Close()
	_, body := get(t, ms.URL)
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	sort.Strings(names)
	return names
}

// TestStatsWireFormat pins the /stats key spelling and nesting of every
// section, on each serving shape that emits it, plus the /healthz keys of
// degraded servers and the /metrics families each shape declares.
// Dashboards and benchmark/ decode these keys; a change to where the
// records are declared must not move one.
func TestStatsWireFormat(t *testing.T) {
	index := []string{"documents", "estimated_disk_bytes", "index_nodes", "links", "shards"}
	sharded := append([]string{"per_shard"}, index...)
	sort.Strings(sharded)
	replication := []string{"applied_seq", "attempts", "entries_applied", "lag", "last_contact_ms", "primary",
		"primary_head_seq", "state"}

	dir := t.TempDir()
	static := func(path, layout string) any {
		srv, err := New(Config{IndexPath: path, ExpectLayout: layout, DefaultTimeout: 30 * time.Second, Logf: silentLogf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return fetchStats(t, ts.URL)
	}
	buildSnapshot(t, filepath.Join(dir, "mono.idx"), 4, true)
	stats := map[string]any{}
	stats["mono"] = static(filepath.Join(dir, "mono.idx"), "")
	buildShardedSnapshot(t, filepath.Join(dir, "sharded.idx"), 8, 2)
	stats["sharded"] = static(filepath.Join(dir, "sharded.idx"), "")
	buildFlatSnapshot(t, filepath.Join(dir, "snap.flat"), 4, true)
	stats["flat"] = static(filepath.Join(dir, "snap.flat"), "flat")
	_, pts := newPrimary(t, filepath.Join(dir, "p.wal"), func(c *Config) { c.QueryCacheEntries = 8 })
	if code, _, body := postInsert(t, pts.URL, 1, "<rec><city>boston</city></rec>"); code != http.StatusOK {
		t.Fatalf("insert = %d: %s", code, body)
	}
	stats["primary"] = fetchStats(t, pts.URL)
	// Armed but never due: the checkpoint section without a failure.
	csrv, cts := newCheckpointingPrimary(t, t.TempDir(), 1000, nil)
	stats["checkpointing"] = fetchStats(t, cts.URL)
	fsrv, fts := newFollower(t, pts.URL, nil)
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return fsrv.dyn.AppliedSeq() == 1 })
	stats["follower"] = fetchStats(t, fts.URL)
	// A poll interval longer than the test: no weights derived yet.
	asrv, ats := newAdaptiveServer(t, 2, func(c *Config) { c.AdaptivePoll = time.Hour })
	stats["adaptive"] = fetchStats(t, ats.URL)
	families := map[string][]string{}
	for shape, srv := range map[string]*Server{"checkpointing": csrv, "follower": fsrv, "adaptive": asrv} {
		families[shape] = metricFamilies(t, srv)
	}

	// Degraded /healthz bodies: a primary whose checkpoints cannot be
	// written, and a follower whose primary is gone.
	_, dpts := newCheckpointingPrimary(t, t.TempDir(), 1, func(c *Config) {
		c.CheckpointPath = filepath.Join(dir, "missing", "p.ckpt")
	})
	if code, _, body := postInsert(t, dpts.URL, 1, docXML(1)); code != http.StatusOK {
		t.Fatalf("insert = %d: %s", code, body)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, dfts := newFollower(t, dead.URL, nil)
	health := map[string]any{}
	for shape, base := range map[string]string{"degraded primary": dpts.URL, "degraded follower": dfts.URL} {
		waitUntil(t, 5*time.Second, shape, func() bool {
			_, body := get(t, base+"/healthz")
			var v map[string]any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("bad /healthz body %s: %v", body, err)
			}
			health[shape] = v
			return v["status"] == "degraded"
		})
	}

	cases := []struct {
		shape string
		path  []any
		want  []string
	}{
		{"mono", []any{"index"}, index},
		{"mono", []any{"flat"}, nil},
		{"mono", []any{"query_cache"}, nil},
		{"mono", []any{"ingest"}, nil},
		{"mono", []any{"durability"}, nil},
		{"sharded", []any{"index"}, sharded},
		{"sharded", []any{"index", "per_shard", 0}, []string{"documents", "index_nodes", "links"}},
		{"flat", []any{"index"}, index},
		{"flat", []any{"flat"}, []string{"disk_accesses", "hits", "mapped_bytes", "mmapped", "pages", "reads",
			"resident_bytes", "resident_pages"}},
		{"primary", []any{"index"}, index},
		{"primary", []any{"query_cache"}, []string{"capacity", "entries", "evictions", "hits", "misses"}},
		{"primary", []any{"ingest"}, []string{"applied_seq", "compactions", "failed_compactions", "insert_errors",
			"inserts", "pending"}},
		{"primary", []any{"durability"}, []string{"appends", "base_seq", "entries", "last_seq", "path",
			"replay_truncated_bytes", "replayed_entries", "rotations", "size_bytes", "synced_seq", "syncs"}},
		{"mono", []any{"snapshot"}, []string{"loaded_at", "path", "reload_failures", "reloads"}},
		{"primary", []any{"checkpoint"}, nil},
		{"checkpointing", []any{"checkpoint"}, []string{"checkpoints", "every_entries", "failures", "path",
			"snapshot_bytes", "snapshot_crc32", "snapshot_requests", "snapshot_seq"}},
		{"follower", []any{"replication"}, replication},
		{"follower", []any{"snapshot"}, nil},
		{"adaptive", []any{"adaptive"}, []string{"drift", "drift_threshold", "enabled", "failures", "rebuilds", "samples"}},
		{"mono", []any{"adaptive"}, nil},
	}
	for _, c := range cases {
		if got := keysAt(stats[c.shape], c.path...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: /stats keys at %v\n got %v\nwant %v", c.shape, c.path, got, c.want)
		}
	}

	// /metrics: every shape declares the common families; the background
	// tasks add their own.
	common := []string{"xseq_admission_active", "xseq_admission_admitted_total", "xseq_admission_queue",
		"xseq_admission_rejected_total", "xseq_admission_slots", "xseq_admission_waiting", "xseq_index_documents",
		"xseq_index_links", "xseq_index_nodes", "xseq_index_shards", "xseq_insert_errors_total", "xseq_inserts_total",
		"xseq_queries_total", "xseq_query_errors_total", "xseq_query_patterns_tracked", "xseq_shard_query_duration_seconds"}
	for shape, extra := range map[string][]string{
		"checkpointing": {"xseq_checkpoint_failures_total", "xseq_checkpoint_snapshot_bytes", "xseq_checkpoints_total",
			"xseq_snapshot_requests_total", "xseq_wal_appends_total", "xseq_wal_last_seq", "xseq_wal_rotations_total",
			"xseq_wal_size_bytes", "xseq_wal_syncs_total"},
		"follower": {"xseq_replication_entries_applied_total", "xseq_replication_lag", "xseq_reseed_attempts_total",
			"xseq_reseeds_total"},
		"adaptive": {"xseq_adaptive_drift", "xseq_adaptive_rebuild_failures_total", "xseq_adaptive_rebuilds_total"},
	} {
		want := append(append([]string(nil), common...), extra...)
		sort.Strings(want)
		if got := families[shape]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /metrics families\n got %v\nwant %v", shape, got, want)
		}
	}

	healthCases := []struct {
		shape string
		path  []any
		want  []string
	}{
		{"degraded primary", nil, []string{"applied_seq", "checkpoint_error", "documents", "draining", "mode", "status"}},
		{"degraded follower", nil, []string{"documents", "draining", "mode", "replication", "status"}},
		{"degraded follower", []any{"replication"}, append([]string{"last_error"}, replication...)},
	}
	for _, c := range healthCases {
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if got := keysAt(health[c.shape], c.path...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /healthz keys at %v\n got %v\nwant %v", c.shape, c.path, got, want)
		}
	}
}
