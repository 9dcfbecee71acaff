package core

import (
	"fmt"
	"os"

	"anyscan/internal/frame"
	"anyscan/internal/graph"
)

// SaveCheckpointFile writes a checkpoint to path crash-safely with
// frame.Publish: at every instant either the previous checkpoint or the
// complete new one exists under path, so a crash mid-save can never destroy
// the last good checkpoint. On error path is untouched. The fault points
// are "checkpoint.write", "checkpoint.sync" and "checkpoint.rename".
func (c *Clusterer) SaveCheckpointFile(path string) error {
	return frame.Publish(path, checkpointKind.Name, c.SaveCheckpoint)
}

// LoadCheckpointFile opens path and reconstructs the suspended run over g
// with LoadCheckpoint.
func LoadCheckpointFile(g *graph.CSR, path string) (*Clusterer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("anyscan: opening checkpoint: %w", err)
	}
	defer f.Close()
	return LoadCheckpoint(g, f)
}
