package flat

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/match"
	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

// corpus generates the named test corpus.
func corpus(t testing.TB, name string, n int) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	var err error
	if name == "xmark" {
		_, docs, err = datagen.XMark(datagen.XMarkOptions{Seed: 11}, n)
	} else {
		var p datagen.SynthParams
		p, err = datagen.ParseSynthName(name)
		if err == nil {
			p.Seed = 11
			_, docs, err = datagen.Synth(p, n)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// buildMono builds an index over docs the way index.BuildContext does:
// g_best over the inferred schema and the corpus repeat set.
func buildMono(t testing.TB, docs []*xmltree.Document, keep bool) *Index {
	t.Helper()
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	enc := pathenc.NewEncoder(0)
	st := sequence.NewProbability(sch, enc)
	st.SetRepeatPaths(sequence.RepeatPaths(roots, enc))
	tr := trie.New()
	h := Head{Enc: enc, Strategy: st, NumDocs: len(docs)}
	for _, d := range docs {
		tr.Insert(st.Sequence(d.Root), d.ID)
		h.MaxDocID = max(h.MaxDocID, d.ID)
	}
	if keep {
		h.Docs = docs
	}
	return Build(tr, h)
}

// flatten saves ix and opens the bytes as a snapshot held in memory.
func flatten(t testing.TB, ix *Index, opts Options) (*Index, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := OpenBytes(buf.Bytes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var testQueries = map[string][]string{
	"xmark": {
		datagen.XMarkQ1,
		datagen.XMarkQ2,
		datagen.XMarkQ3,
		"/site//person/name",
		"//item/location",
		"//date",
		"/site/*",
	},
	"L3F5A25I0P40": {
		"/e1",
		"/e1/e2",
		"//e3",
		"/e1/*",
		"//e2//*",
	},
}

// TestFlatEquivalence: a saved and reopened snapshot must answer every
// query mode exactly like the index built in memory — plain, verified,
// stats-carrying, and limited.
func TestFlatEquivalence(t *testing.T) {
	for corpusName, queries := range testQueries {
		docs := corpus(t, corpusName, 250)
		mono := buildMono(t, docs, true)
		f, _ := flatten(t, mono, Options{Verify: true})
		if f.NumDocuments() != mono.NumDocuments() {
			t.Fatalf("%s: NumDocuments %d, want %d", corpusName, f.NumDocuments(), mono.NumDocuments())
		}
		if f.NumNodes() != mono.NumNodes() {
			t.Fatalf("%s: NumNodes %d, want %d", corpusName, f.NumNodes(), mono.NumNodes())
		}
		if f.NumLinks() != mono.NumLinks() {
			t.Fatalf("%s: NumLinks %d, want %d", corpusName, f.NumLinks(), mono.NumLinks())
		}
		ctx := context.Background()
		for _, q := range queries {
			pat, err := query.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mono.QueryWithContext(ctx, pat, engine.QueryOptions{})
			if err != nil {
				t.Fatalf("%s: mono %s: %v", corpusName, q, err)
			}
			got, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{})
			if err != nil {
				t.Fatalf("%s: flat %s: %v", corpusName, q, err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: %s: flat %v, mono %v", corpusName, q, got, want)
			}

			wantV, err := mono.QueryWithContext(ctx, pat, engine.QueryOptions{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{Verify: true})
			if err != nil {
				t.Fatalf("%s: flat verified %s: %v", corpusName, q, err)
			}
			if !equalIDs(gotV, wantV) {
				t.Fatalf("%s: verified %s: flat %v, mono %v", corpusName, q, gotV, wantV)
			}

			var st engine.QueryStats
			gotE, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{Stats: &st})
			if err != nil {
				t.Fatalf("%s: flat explain %s: %v", corpusName, q, err)
			}
			if !equalIDs(gotE, want) || st.Results != len(want) {
				t.Fatalf("%s: explain %s: ids %v stats %+v, want %v", corpusName, q, gotE, st, want)
			}

			if len(want) > 1 {
				part, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{MaxResults: len(want) - 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(part) != len(want)-1 {
					t.Fatalf("%s: limit %s: %d ids, want %d", corpusName, q, len(part), len(want)-1)
				}
				members := map[int32]bool{}
				for _, id := range want {
					members[id] = true
				}
				for _, id := range part {
					if !members[id] {
						t.Fatalf("%s: limit %s: id %d not in full result", corpusName, q, id)
					}
				}
			}
		}
	}
}

// TestFlatFileRoundtrip: SaveFile → OpenFile (mapped and unmapped) both
// answer like the built index, and Close is idempotent.
func TestFlatFileRoundtrip(t *testing.T) {
	docs := corpus(t, "xmark", 120)
	mono := buildMono(t, docs, false)
	path := filepath.Join(t.TempDir(), "x.flat")
	if err := mono.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, noMmap := range []bool{false, true} {
		f, err := OpenFile(path, Options{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("NoMmap=%v: %v", noMmap, err)
		}
		if !noMmap && mmapAvailable != f.Mmapped() {
			t.Fatalf("Mmapped() = %v, platform mmap %v", f.Mmapped(), mmapAvailable)
		}
		if noMmap && f.Mmapped() {
			t.Fatal("NoMmap snapshot claims to be mapped")
		}
		if f.MappedBytes() == 0 {
			t.Fatal("MappedBytes = 0")
		}
		for _, q := range []string{datagen.XMarkQ1, "//date", "/site/*"} {
			pat, _ := query.Parse(q)
			want, _ := mono.QueryWithContext(ctx, pat, engine.QueryOptions{})
			got, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("NoMmap=%v %s: %v, want %v", noMmap, q, got, want)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlatSaveCopies: Save re-emits the identical byte stream, and the
// copy opens and answers.
func TestFlatSaveCopies(t *testing.T) {
	docs := corpus(t, "L3F5A25I0P40", 80)
	mono := buildMono(t, docs, false)
	f, blob := flatten(t, mono, Options{})
	var out bytes.Buffer
	if err := f.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob) {
		t.Fatal("Save did not reproduce the snapshot bytes")
	}
	if _, err := OpenBytes(out.Bytes(), Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatReleaseEncodedHead: a heap-held snapshot that releases its
// encoded head keeps answering every query mode, still passes the
// invariant check, and saves the identical snapshot by encoding the head
// again. A mapped snapshot keeps its image whole.
func TestFlatReleaseEncodedHead(t *testing.T) {
	docs := corpus(t, "xmark", 80)
	built := buildMono(t, docs, true)
	f, blob := flatten(t, built, Options{})
	if err := f.ReleaseEncodedHead(); err != nil {
		t.Fatal(err)
	}
	if got, want := f.MappedBytes(), int64(f.sections[secEnds].off+f.sections[secEnds].len); got != want {
		t.Fatalf("image holds %d bytes after the release, want the %d up to the end of ENDS", got, want)
	}
	if err := f.ReleaseEncodedHead(); err != nil {
		t.Fatalf("second release: %v", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := f.Documents(); len(got) != len(docs) {
		t.Fatalf("%d documents after the release, want %d", len(got), len(docs))
	}
	ctx := context.Background()
	for _, q := range testQueries["xmark"] {
		pat := query.MustParse(q)
		for _, qo := range []engine.QueryOptions{{}, {Verify: true}} {
			want, err := built.QueryWithContext(ctx, pat, qo)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := f.QueryWithContext(ctx, pat, qo); err != nil || !equalIDs(got, want) {
				t.Fatalf("%s (verify %v) = %v (%v), want %v", q, qo.Verify, got, err, want)
			}
		}
	}
	var out bytes.Buffer
	if err := f.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob) {
		t.Fatal("Save after the release did not reproduce the snapshot bytes")
	}

	path := filepath.Join(t.TempDir(), "snap.flat")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.ReleaseEncodedHead(); err != nil {
		t.Fatal(err)
	}
	if mapped.Mmapped() && mapped.MappedBytes() != int64(len(blob)) {
		t.Fatalf("mapped image holds %d bytes after the release, want all %d", mapped.MappedBytes(), len(blob))
	}
}

// TestFlatPagerAccounting: with a pool attached, queries charge page
// touches; resident pages grow and stay within the snapshot's page count;
// detaching restores the untracked fast path.
func TestFlatPagerAccounting(t *testing.T) {
	docs := corpus(t, "xmark", 150)
	mono := buildMono(t, docs, false)
	f, _ := flatten(t, mono, Options{})
	total, err := f.AttachPager(pager.NewPool(int(f.TotalPages())))
	if err != nil {
		t.Fatal(err)
	}
	if total != f.TotalPages() || total == 0 {
		t.Fatalf("AttachPager pages = %d, TotalPages = %d", total, f.TotalPages())
	}
	ctx := context.Background()
	pat, _ := query.Parse("//item/location")
	if _, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	st := f.PagerStats()
	if st.Reads == 0 || st.Misses == 0 {
		t.Fatalf("no page touches recorded: %+v", st)
	}
	res := f.ResidentPages()
	if res == 0 || res > total {
		t.Fatalf("resident pages %d outside (0, %d]", res, total)
	}
	if !f.PagerAttached() {
		t.Fatal("PagerAttached = false while attached")
	}
	f.DetachPager()
	if f.PagerAttached() || f.ResidentPages() != 0 {
		t.Fatal("detach did not clear pager state")
	}
}

// TestFlatCorruptionDetected: every class of damage — truncation anywhere,
// bit flips in every region, forged section lengths — fails the
// full-verification open with *match.CorruptError and never panics.
func TestFlatCorruptionDetected(t *testing.T) {
	docs := corpus(t, "xmark", 60)
	mono := buildMono(t, docs, true)
	_, blob := flatten(t, mono, Options{})

	check := func(name string, data []byte) {
		t.Helper()
		_, err := OpenBytes(data, Options{Verify: true})
		if err == nil {
			t.Fatalf("%s: full-verify open accepted damaged snapshot", name)
		}
		var ce *match.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %v, want *match.CorruptError", name, err)
		}
	}

	// Truncation at representative byte counts, including mid-header.
	for _, n := range []int{0, 7, 12, 40, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		check("truncate", blob[:n])
	}
	// One flipped bit in every region of the file.
	step := len(blob)/37 + 1
	for off := 0; off < len(blob); off += step {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x10
		check("bitflip", mut)
	}
	// Forged section lengths: double every table entry's length in turn.
	count := int(le.Uint32(blob[12:]))
	for i := 0; i < count; i++ {
		mut := bytes.Clone(blob)
		row := headerFixedLen + i*sectionEntryLen
		le.PutUint64(mut[row+16:], le.Uint64(mut[row+16:])*2+8)
		check("forged-length", mut)
	}
}

// TestFlatLazyOpenQueriesNeverPanic: the O(1) open skips bulk checksums,
// so damage there may only surface at query time — as a *CorruptError or
// (for label-value damage the varint framing happens to absorb) a
// well-formed wrong-id set that full verification would have caught; what
// is never allowed is a panic.
func TestFlatLazyOpenQueriesNeverPanic(t *testing.T) {
	docs := corpus(t, "xmark", 60)
	mono := buildMono(t, docs, false)
	_, blob := flatten(t, mono, Options{})
	ctx := context.Background()
	pats := make([]*query.Pattern, 0, 3)
	for _, q := range []string{"//date", "/site/*", datagen.XMarkQ1} {
		p, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	step := len(blob)/53 + 1
	for off := 0; off < len(blob); off += step {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x40
		f, err := OpenBytes(mut, Options{})
		if err != nil {
			var ce *match.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("open at %d: error %v, want *match.CorruptError", off, err)
			}
			continue
		}
		for _, pat := range pats {
			if _, err := f.QueryWithContext(ctx, pat, engine.QueryOptions{}); err != nil {
				var ce *match.CorruptError
				if !errors.As(err, &ce) && ctx.Err() == nil {
					t.Fatalf("query after flip at %d: error %v, want *match.CorruptError", off, err)
				}
			}
		}
	}
}

// FuzzFlatLoad hammers OpenBytes + the query kernel with arbitrary bytes:
// whatever the damage, opening either fails with *match.CorruptError or
// yields an index whose queries run to completion without panicking.
func FuzzFlatLoad(f *testing.F) {
	docs := corpus(f, "L3F5A25I0P40", 30)
	mono := buildMono(f, docs, false)
	_, blob := flatten(f, mono, Options{})
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:headerFixedLen+4])
	f.Add([]byte("XSEQFLAT"))
	f.Add([]byte{})
	mut := bytes.Clone(blob)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)
	pat, err := query.Parse("//e2")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := OpenBytes(data, Options{})
		if err != nil {
			var ce *match.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("open error %v, want *match.CorruptError", err)
			}
			return
		}
		if _, err := ix.QueryWithContext(context.Background(), pat, engine.QueryOptions{}); err != nil {
			var ce *match.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("query error %v, want *match.CorruptError", err)
			}
		}
	})
}

// reseal recomputes every section checksum and the header checksum of a
// snapshot a test edited, so that only the structural checks stand between
// the damage and a query.
func reseal(blob []byte) {
	for id := 1; id <= numSections; id++ {
		row := blob[headerFixedLen+(id-1)*sectionEntryLen:]
		off, n := le.Uint64(row[8:]), le.Uint64(row[16:])
		le.PutUint32(row[4:], crc32.ChecksumIEEE(blob[off:off+n]))
	}
	le.PutUint32(blob[headerLen-4:], crc32.ChecksumIEEE(blob[:headerLen-4]))
}

// sectionOf returns section id of a snapshot's bytes.
func sectionOf(blob []byte, id int) []byte {
	row := blob[headerFixedLen+(id-1)*sectionEntryLen:]
	off, n := le.Uint64(row[8:]), le.Uint64(row[16:])
	return blob[off : off+n]
}

// identicalSiblings is an XMark corpus whose links carry cover metadata.
func identicalSiblings(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	_, docs, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 3}, n)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestFlatForgedSnapshots: damage that keeps every checksum valid — a link
// directory row aliasing another path's link, an anc pointer that does not
// point back, end blocks out of order — and snapshots of another format or
// version fail the verified open with a *CorruptError that names the
// problem.
func TestFlatForgedSnapshots(t *testing.T) {
	_, blob := flatten(t, buildMono(t, identicalSiblings(t, 60), false), Options{})
	cases := []struct {
		name, want string
		forge      func(b []byte)
	}{
		{"duplicate link", "overlaps another link", func(b []byte) {
			dir := sectionOf(b, secLinkDir)
			var rows [][]byte
			for p := 0; len(rows) < 2; p++ {
				if row := dir[p*linkDirEntryLen : (p+1)*linkDirEntryLen]; le.Uint32(row) > 0 {
					rows = append(rows, row)
				}
			}
			copy(rows[1], rows[0])
			reseal(b)
		}},
		{"forged anc", "not earlier", func(b []byte) {
			dir, links := sectionOf(b, secLinkDir), sectionOf(b, secLinks)
			for p := 0; p*linkDirEntryLen < len(dir); p++ {
				row := dir[p*linkDirEntryLen:]
				if n := int(le.Uint32(row)); n > 0 && le.Uint32(row[4:])&linkHasCover != 0 {
					anc := links[le.Uint64(row[8:])+uint64(8*n):]
					for k := 0; k < n; k++ {
						if int32(le.Uint32(anc[4*k:])) >= 0 {
							le.PutUint32(anc[4*k:], uint32(k))
							reseal(b)
							return
						}
					}
				}
			}
			t.Fatal("corpus has no cover metadata to forge")
		}},
		{"end blocks out of order", "not after", func(b []byte) {
			ends := sectionOf(b, secEnds)
			le.PutUint32(ends[4+endsDirRowLen:], le.Uint32(ends[4:]))
			reseal(b)
		}},
		{"format version 1", "rebuild", func(b []byte) {
			le.PutUint32(b[8:], 1)
			reseal(b)
		}},
		{"unknown magic", "bad magic", func(b []byte) { b[0] = 'Y' }},
		{"gob stream", "XSEQIDX2", func(b []byte) { copy(b, "XSEQIDX2") }},
	}
	for _, c := range cases {
		b := bytes.Clone(blob)
		c.forge(b)
		_, err := OpenBytes(b, Options{Verify: true})
		var ce *match.CorruptError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open error %v, want *match.CorruptError mentioning %q", c.name, err, c.want)
		}
	}
}

// TestFlatEveryBitFlip: one flipped bit anywhere in a snapshot — header,
// section table, padding or any section — fails the verified open with a
// *CorruptError.
func TestFlatEveryBitFlip(t *testing.T) {
	_, blob := flatten(t, buildMono(t, corpus(t, "L3F5A25I0P40", 4), true), Options{})
	for off := range blob {
		bit := byte(1) << (off % 8)
		blob[off] ^= bit
		_, err := OpenBytes(blob, Options{Verify: true})
		blob[off] ^= bit
		var ce *match.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit %d of byte %d flipped: open error %v, want *match.CorruptError", off%8, off, err)
		}
	}
}

// TestCheckInvariantsDetectsCorruption: each broken invariant of a built
// index — in a link's labels or cover columns, in the end-node table, or
// in the bounds the head records — is reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	docs := identicalSiblings(t, 20)
	firstLink := func(ix *Index, ok func(l *match.Link) bool) *match.Link {
		for p := range ix.links {
			if l := &ix.links[p]; l.Len() > 0 && ok(l) {
				return l
			}
		}
		t.Fatal("no link fits the corruption")
		return nil
	}
	anyLink := func(*match.Link) bool { return true }
	cover := func(l *match.Link) bool { return l.HasCover() }
	corruptions := []struct {
		name string
		mut  func(ix *Index)
	}{
		{"inverted interval", func(ix *Index) {
			l := firstLink(ix, anyLink)
			l.Set(0, l.Pre(0), l.Pre(0)-1)
		}},
		{"unsorted link", func(ix *Index) {
			l := firstLink(ix, func(l *match.Link) bool { return l.Len() >= 2 })
			l.Set(0, l.Pre(1), l.Max(0))
		}},
		{"forward anc", func(ix *Index) {
			l := firstLink(ix, cover)
			l.SetAnc(0, l.Len())
		}},
		{"anc without embeds mark", func(ix *Index) {
			l := firstLink(ix, cover)
			for k := int32(0); k < l.Len(); k++ {
				if a := l.Anc(k); a >= 0 {
					ix.data[l.Off+uint64(12*l.Len()+a/8)] &^= 1 << (a % 8)
					return
				}
			}
		}},
		{"end blocks out of order", func(ix *Index) {
			le.PutUint32(ix.ends.s[4+endsDirRowLen:], le.Uint32(ix.ends.s[4:]))
		}},
		{"doc id out of range", func(ix *Index) { ix.meta.MaxDocID = 0 }},
		{"serial out of range", func(ix *Index) { ix.meta.MaxSerial = 1 }},
	}
	for _, c := range corruptions {
		ix := buildMono(t, docs, false)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: pre-corruption check failed: %v", c.name, err)
		}
		c.mut(ix)
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}
