package main

import (
	"bytes"
	"fmt"

	"xseq/internal/datagen"
	"xseq/internal/xmltree"
)

// corpus is the generated input of one run: Records documents the server
// starts with and Reserve further documents (ids continue upward) that
// dynamic_rw inserts and the traced pass's write segment uses. The program
// under test only ever sees the XML bytes.
type corpus struct {
	docs       []*xmltree.Document
	xml        [][]byte
	reserve    []*xmltree.Document
	reserveXML [][]byte
	xmlBytes   int64 // serialised size of docs
}

func (c *corpus) baseN() int32 { return int32(len(c.docs)) }

// generate builds the corpus from the seed alone: the same seed gives the
// same documents, byte for byte.
func generate(kind string, seed int64, sc scale) (*corpus, error) {
	n := sc.Records + sc.Reserve
	var (
		all []*xmltree.Document
		err error
	)
	switch kind {
	case "xmark":
		// IdenticalSiblings so order enumeration and the sibling-cover test
		// of Thm 3 actually run.
		_, all, err = datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: seed}, n)
	case "dblp":
		_, all, err = datagen.DBLP(datagen.DBLPOptions{Seed: seed}, n)
	default:
		err = fmt.Errorf("unknown corpus %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s corpus: %w", kind, err)
	}
	c := &corpus{docs: all[:sc.Records], reserve: all[sc.Records:]}
	if c.xml, err = serialise(c.docs); err != nil {
		return nil, err
	}
	if c.reserveXML, err = serialise(c.reserve); err != nil {
		return nil, err
	}
	for _, b := range c.xml {
		c.xmlBytes += int64(len(b))
	}
	return c, nil
}

func serialise(docs []*xmltree.Document) ([][]byte, error) {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		var b bytes.Buffer
		if err := xmltree.WriteXML(&b, d.Root); err != nil {
			return nil, fmt.Errorf("serialise document %d: %w", d.ID, err)
		}
		out[i] = b.Bytes()
	}
	return out, nil
}
