package ehna

import (
	"encoding/gob"
	"fmt"
	"io"

	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// snapshot is the gob wire format of a trained model: the configuration,
// the embedding table, and every network parameter in registration order.
// Optimizer moments are not persisted; resumed training restarts Adam.
type snapshot struct {
	Version int
	Cfg     Config
	NumNode int
	Emb     matrixWire
	Params  []matrixWire
}

type matrixWire struct {
	Rows, Cols int
	Data       []float64
}

func toWire(m *tensor.Matrix) matrixWire {
	return matrixWire{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

func fromWire(w matrixWire) (*tensor.Matrix, error) {
	if len(w.Data) != w.Rows*w.Cols {
		return nil, fmt.Errorf("ehna: corrupt matrix: %d values for %dx%d", len(w.Data), w.Rows, w.Cols)
	}
	return tensor.FromSlice(w.Rows, w.Cols, w.Data), nil
}

// snapshotVersion guards the wire format; bump on incompatible changes.
const snapshotVersion = 1

// Save serializes the trained model (config, embedding table, network
// parameters) to w. The training graph is NOT persisted — pass the same
// graph (or a compatible one with identical node count) to Load.
func (m *Model) Save(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Cfg:     m.cfg,
		NumNode: m.g.NumNodes(),
		Emb:     toWire(m.emb.W),
	}
	for _, p := range m.params.List() {
		snap.Params = append(snap.Params, toWire(p.W))
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("ehna: save: %v", err)
	}
	return nil
}

// Load reconstructs a model saved with Save, binding it to g. The graph
// must have the same node count as the one the model was trained on (the
// embedding table is positional).
func Load(g *graph.Temporal, r io.Reader) (*Model, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ehna: load: %v", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("ehna: load: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if g.NumNodes() != snap.NumNode {
		return nil, fmt.Errorf("ehna: load: graph has %d nodes, model trained on %d", g.NumNodes(), snap.NumNode)
	}
	m, err := NewModel(g, snap.Cfg)
	if err != nil {
		return nil, err
	}
	emb, err := fromWire(snap.Emb)
	if err != nil {
		return nil, err
	}
	if emb.Rows != m.emb.W.Rows || emb.Cols != m.emb.W.Cols {
		return nil, fmt.Errorf("ehna: load: embedding table %dx%d, want %dx%d",
			emb.Rows, emb.Cols, m.emb.W.Rows, m.emb.W.Cols)
	}
	copy(m.emb.W.Data, emb.Data)
	params := m.params.List()
	if len(params) != len(snap.Params) {
		return nil, fmt.Errorf("ehna: load: %d parameters in snapshot, model has %d",
			len(snap.Params), len(params))
	}
	for i, pw := range snap.Params {
		w, err := fromWire(pw)
		if err != nil {
			return nil, err
		}
		if w.Rows != params[i].W.Rows || w.Cols != params[i].W.Cols {
			return nil, fmt.Errorf("ehna: load: parameter %s is %dx%d in snapshot, want %dx%d",
				params[i].Name, w.Rows, w.Cols, params[i].W.Rows, params[i].W.Cols)
		}
		copy(params[i].W.Data, w.Data)
	}
	return m, nil
}
