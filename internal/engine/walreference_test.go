package engine

// The sequential replay reference: the simplest reading of the WAL's
// valid-prefix contract, which recovery's scan → parallel decode →
// in-order apply pipeline (shardedStore.replay) is held to by the
// replay tests and FuzzWALReplay.

import "opdaemon/internal/core"

// walReplay is sequential replay: it scans the frames in data
// (walScanFrames) and invokes apply for each valid record in order,
// returning the byte length of the valid prefix. Replay stops at the
// first torn or corrupt frame, or at a record apply refuses; everything
// before it has been applied, everything from it on is untrusted. A
// clean walk to the end returns (len(data), nil).
func walReplay(data []byte, apply func(typ byte, body []byte) error) (int, error) {
	refs, valid, scanErr := walScanFrames(data, nil)
	for _, ref := range refs {
		if err := apply(ref.typ, ref.body); err != nil {
			return ref.off, err
		}
	}
	return valid, scanErr
}

// applyWALRecord decodes and folds one record into the replay state
// map. It rejects records that do not decode (unknown type, bad body,
// empty ID) so replay treats them as the end of the valid prefix.
func applyWALRecord(state map[string]*core.Operation, typ byte, body []byte) error {
	r := walRef{typ: typ, body: body}
	if err := decodeWALRecord(&r); err != nil {
		return err
	}
	applyDecoded(state, &r)
	return nil
}
