package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
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

// TestStatsWireFormat pins the /stats key spelling and nesting of every
// section assembled from the facade's stats records, on each serving shape
// that emits it. Dashboards and benchmark/ decode these keys; a change to
// where the records are declared must not move one.
func TestStatsWireFormat(t *testing.T) {
	index := []string{"documents", "estimated_disk_bytes", "index_nodes", "links", "shards"}
	sharded := append([]string{"per_shard"}, index...)
	sort.Strings(sharded)

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
	}
	for _, c := range cases {
		if got := keysAt(stats[c.shape], c.path...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: /stats keys at %v\n got %v\nwant %v", c.shape, c.path, got, c.want)
		}
	}
}
