// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the archive's tier-1 `go build ./...`. Its
// import path sits under securearchive/, which is what lets it import
// securearchive/internal/...; the replace points at the checkout root.
module securearchive/bench

go 1.22

require securearchive v0.0.0

replace securearchive => ../
