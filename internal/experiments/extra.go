package experiments

import (
	"fmt"
	"os"

	"destset"
	"destset/internal/dataset"
)

// LoadExtraDatasets turns pre-built columnar dataset files — tracegen
// -import output, or any spilled store file — into workload specs for
// Options.ExtraWorkloads. Each file is validated by loading it, then
// installed under its content address in datasetDir unless already
// there: the shared store resolves pre-built (especially imported)
// datasets through its disk tier, so the directory is required. The
// returned specs pin each dataset's own warm/measure split.
func LoadExtraDatasets(paths []string, datasetDir string) ([]destset.WorkloadSpec, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	if datasetDir == "" {
		return nil, fmt.Errorf("experiments: extra datasets need a dataset directory to resolve through (-dataset-dir)")
	}
	specs := make([]destset.WorkloadSpec, 0, len(paths))
	for _, path := range paths {
		ds, err := dataset.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: extra dataset %s: %w", path, err)
		}
		p := ds.Params()
		key := dataset.KeyOf(p, ds.Warm(), ds.Measure())
		dest := key.Path(datasetDir)
		if _, err := os.Stat(dest); os.IsNotExist(err) {
			if err := os.MkdirAll(datasetDir, 0o755); err != nil {
				return nil, err
			}
			if err := dataset.WriteFile(dest, ds); err != nil {
				return nil, fmt.Errorf("experiments: installing %s into %s: %w", path, datasetDir, err)
			}
		}
		specs = append(specs, destset.WorkloadSpec{
			Name:    p.Name,
			Params:  &p,
			Warm:    explicitScale(ds.Warm()),
			Measure: explicitScale(ds.Measure()),
		})
	}
	return specs, nil
}
