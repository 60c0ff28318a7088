//! Empty on purpose: nine flashr manifests declare `rand`, none has a
//! `use rand` site, so the benchmark's offline build only needs the name
//! to resolve.
