package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/models"
)

// referenceSeed is the seed digests.json was made with, the paper seed
// every repo default uses.
const referenceSeed = 2018

// reference is testdata/digests.json: the SHA-256 of the canonical
// flattening (see digest) of every result the six workloads produce at
// the reference seed. With another seed there is nothing to look up, and
// the checks that remain are service against direct run, traced against
// untraced, and pass against pass.
type reference struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

//go:embed testdata/digests.json
var referenceJSON []byte

func loadReference() reference {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic(fmt.Sprintf("testdata/digests.json: %v", err)) // a file of this package
	}
	return ref
}

// writeReference recomputes every digest by a direct run of each spec the
// full-size workloads use and writes the file. It goes through none of the
// code the digests are there to check: no daemon, no traced stack.
func writeReference(ctx context.Context, path string) error {
	ref := reference{Seed: referenceSeed, Digests: map[string]string{}}
	var art *models.Artifact
	for _, w := range suite(sizeFull) {
		for _, s := range w.specs(referenceSeed) {
			if s.cfg.Power.UsesMLUnit() && art == nil {
				var err error
				if art, err = trainModel(sizeFull, referenceSeed); err != nil {
					return err
				}
			}
			_, res, err := s.run(ctx, art)
			if err != nil {
				return fmt.Errorf("%s: %w", s.id(), err)
			}
			ref.Digests[s.id()] = digest(res)
		}
	}
	return writeJSON(path, ref)
}
