package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distcoord/internal/eval"
	"distcoord/internal/nn"
)

// policyChecksum is nn.Checksum of the committed checkpoint. The paper_*
// workloads refuse to run on any other bytes: a different policy makes
// different decisions, so its numbers would not be comparable.
const policyChecksum = "1992c81e7a2e10d7a95ce64761bbabfb8f7366d0fb01333dcb6607090e33ada8"

// policyBudget is the training run that produced the committed
// checkpoint (go run ./benchmark -make-policy). It is deterministic:
// rerunning it on the same code reproduces the file byte for byte.
func policyBudget() eval.TrainBudget {
	return eval.TrainBudget{
		Episodes:     120,
		ParallelEnvs: 2,
		Seeds:        1,
		Horizon:      1000,
		Hidden:       []int{256, 256},
		LR:           1e-3,
		Seed:         7,
	}
}

// policyFile locates the committed checkpoint from the repository root
// (go run ./benchmark) or from the package directory (go test).
func policyFile() string {
	const name = "testdata/abilene_2x256.json"
	p := filepath.Join("benchmark", name)
	if _, err := os.Stat(p); err != nil {
		return name
	}
	return p
}

// makePolicy trains the benchmark's input policy and writes it next to
// the harness, printing the checksum to pin in policyChecksum.
func makePolicy() error {
	start := time.Now()
	p, err := eval.TrainDRL(eval.Base(), policyBudget())
	if err != nil {
		return err
	}
	path := filepath.Join("benchmark", "testdata", "abilene_2x256.json")
	if err := p.Agent.Actor.SaveFile(path); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes) in %.0fs\ntraining score %.4f\nchecksum %s\n",
		path, len(data), time.Since(start).Seconds(), p.Stats.BestScore, nn.Checksum(data))
	return nil
}
