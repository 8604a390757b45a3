//! Versioned model registry with atomic hot-swap.
//!
//! A registry watches a directory of `FittedModel` JSON artifacts
//! (`<version>.json`; versions order lexicographically, so `v0001.json`,
//! `v0002.json`, … is the natural scheme). The highest version is the
//! *current* model. [`ModelRegistry::reload`] rescans the directory and,
//! if a newer valid artifact appeared, swaps it in atomically: in-flight
//! requests keep the `Arc` of the model they started with, so a swap
//! never invalidates a prediction mid-batch, and a broken new artifact
//! leaves the old model serving.
//!
//! Every artifact is validated against the serving [`ServeSchema`] before
//! it can become current: each of the model's kept columns must name the
//! same feature at the same index the schema puts it, so a registry can
//! never serve a model that would silently read the wrong feature.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use wdt_features::FEATURES;
use wdt_model::FittedModel;

/// The feature layout prediction rows are built in: names, in order — the
/// served columns of [`FEATURES`], exactly what
/// `wdt_model::build_dataset(_, false)` trains on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSchema {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
    scan_index: crate::rowscan::SchemaIndex,
}

impl ServeSchema {
    /// The prediction-time schema (Table 2 features minus `Nflt`).
    pub fn prediction() -> Self {
        let names: Vec<String> =
            FEATURES.iter().filter(|c| c.served()).map(|c| c.name.to_string()).collect();
        let index = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let scan_index = crate::rowscan::SchemaIndex::build(&names);
        ServeSchema { names, index, scan_index }
    }

    /// Number of features in a row.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Ordered feature names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a feature name, if part of the schema.
    pub fn position(&self) -> &BTreeMap<String, usize> {
        &self.index
    }

    /// The precomputed first-byte index the allocation-free body scanner
    /// resolves feature names against (built once per schema).
    pub(crate) fn scan_index(&self) -> &crate::rowscan::SchemaIndex {
        &self.scan_index
    }

    /// Check an artifact against this schema: every kept column must sit
    /// at an in-bounds index and name the feature the schema has there.
    pub fn validate(&self, model: &FittedModel) -> Result<(), RegistryError> {
        for (&col, name) in model.kept_columns().iter().zip(model.feature_names()) {
            match self.names.get(col) {
                Some(expected) if expected == name => {}
                Some(expected) => {
                    return Err(RegistryError::Schema(format!(
                        "artifact expects '{name}' at column {col}, schema has '{expected}'"
                    )))
                }
                None => {
                    return Err(RegistryError::Schema(format!(
                        "artifact column {col} ('{name}') is outside the \
                         {}-feature serving schema",
                        self.width()
                    )))
                }
            }
        }
        Ok(())
    }
}

/// An immutable, validated, in-memory model version.
///
/// Handed out as `Arc<LoadedModel>`: request handlers clone the `Arc`
/// once and use the same version for an entire batch, so hot-swaps are
/// race-free by construction.
pub struct LoadedModel {
    /// Version label (artifact file stem).
    pub version: String,
    /// The version label as a shared string, built once at load time so
    /// every per-prediction response clones a refcount instead of
    /// allocating a fresh `Arc<str>` per batch.
    pub version_shared: Arc<str>,
    /// The deserialized model.
    pub model: FittedModel,
}

impl LoadedModel {
    /// Wrap a validated model under its version label.
    pub fn new(version: String, model: FittedModel) -> Self {
        let version_shared = Arc::from(version.as_str());
        LoadedModel { version, version_shared, model }
    }
}

/// Registry failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Directory unreadable or artifact I/O failed.
    Io(String),
    /// No `*.json` artifact present.
    Empty(String),
    /// Artifact failed to parse as a model.
    Artifact(String),
    /// Artifact incompatible with the serving feature schema.
    Schema(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(m) => write!(f, "registry io: {m}"),
            RegistryError::Empty(d) => write!(f, "no model artifacts (*.json) in {d}"),
            RegistryError::Artifact(m) => write!(f, "bad model artifact: {m}"),
            RegistryError::Schema(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Versioned model store; see the module docs.
pub struct ModelRegistry {
    dir: PathBuf,
    schema: ServeSchema,
    current: RwLock<Arc<LoadedModel>>,
}

impl ModelRegistry {
    /// Open a registry over `dir`, loading the highest-versioned valid
    /// artifact. Fails if the directory holds no loadable artifact.
    pub fn open(dir: impl Into<PathBuf>, schema: ServeSchema) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let initial = Self::load_latest(&dir, &schema)?;
        Ok(ModelRegistry { dir, schema, current: RwLock::new(Arc::new(initial)) })
    }

    /// The serving feature schema.
    pub fn schema(&self) -> &ServeSchema {
        &self.schema
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current model version. Cheap: one `Arc` clone under a read
    /// lock held for nanoseconds — callers then predict lock-free.
    pub fn current(&self) -> Arc<LoadedModel> {
        self.current.read().expect("registry lock poisoned").clone()
    }

    /// Rescan the directory; if the highest-versioned artifact differs
    /// from the current version, validate and atomically swap it in.
    /// Returns the now-current version. On any error the previous model
    /// keeps serving.
    pub fn reload(&self) -> Result<String, RegistryError> {
        let latest_version = Self::latest_version(&self.dir)?;
        if latest_version == self.current().version {
            return Ok(latest_version);
        }
        let fresh = Self::load_version(&self.dir, &latest_version, &self.schema)?;
        let mut cur = self.current.write().expect("registry lock poisoned");
        *cur = Arc::new(fresh);
        Ok(cur.version.clone())
    }

    /// Versions available on disk, ascending.
    pub fn versions(&self) -> Result<Vec<String>, RegistryError> {
        Self::scan(&self.dir)
    }

    fn scan(dir: &Path) -> Result<Vec<String>, RegistryError> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| RegistryError::Io(format!("{}: {e}", dir.display())))?;
        let mut versions = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| RegistryError::Io(e.to_string()))?.path();
            if path.extension().and_then(|s| s.to_str()) == Some("json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    versions.push(stem.to_string());
                }
            }
        }
        versions.sort();
        Ok(versions)
    }

    fn latest_version(dir: &Path) -> Result<String, RegistryError> {
        Self::scan(dir)?.pop().ok_or_else(|| RegistryError::Empty(dir.display().to_string()))
    }

    fn load_version(
        dir: &Path,
        version: &str,
        schema: &ServeSchema,
    ) -> Result<LoadedModel, RegistryError> {
        let path = dir.join(format!("{version}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| RegistryError::Io(format!("{}: {e}", path.display())))?;
        let model = FittedModel::from_json(&text)
            .map_err(|e| RegistryError::Artifact(format!("{}: {e}", path.display())))?;
        schema.validate(&model)?;
        Ok(LoadedModel::new(version.to_string(), model))
    }

    fn load_latest(dir: &Path, schema: &ServeSchema) -> Result<LoadedModel, RegistryError> {
        Self::load_version(dir, &Self::latest_version(dir)?, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_features::Dataset;
    use wdt_model::{FitConfig, ModelKind};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wdt-registry-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// A model over the real prediction schema (15 features).
    fn schema_model(slope: f64) -> FittedModel {
        let schema = ServeSchema::prediction();
        let names = schema.names().to_vec();
        let w = schema.width();
        let x: Vec<Vec<f64>> =
            (0..120).map(|i| (0..w).map(|j| ((i * (j + 3)) % 17) as f64).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| slope * r[0] + 2.0 * r[1] + r[10]).collect();
        FittedModel::fit(&Dataset::new(names, x, y), ModelKind::Linear, &FitConfig::default())
            .expect("fit")
    }

    #[test]
    fn loads_highest_version_and_hot_swaps() {
        let dir = tmpdir("hot-swap");
        std::fs::write(dir.join("v0001.json"), schema_model(1.0).to_json()).unwrap();
        let reg = ModelRegistry::open(&dir, ServeSchema::prediction()).expect("open");
        assert_eq!(reg.current().version, "v0001");

        // The handle taken before the swap keeps working after it.
        let before = reg.current();
        std::fs::write(dir.join("v0002.json"), schema_model(5.0).to_json()).unwrap();
        assert_eq!(reg.reload().expect("reload"), "v0002");
        assert_eq!(reg.current().version, "v0002");
        let row = vec![1.0; reg.schema().width()];
        let old = before.model.predict_row(&row);
        let new = reg.current().model.predict_row(&row);
        assert!(old.is_finite() && new.is_finite());
        assert_ne!(old, new, "swapped model must actually differ");
        assert_eq!(reg.versions().unwrap(), vec!["v0001", "v0002"]);
    }

    #[test]
    fn reload_is_idempotent_without_new_artifacts() {
        let dir = tmpdir("idempotent");
        std::fs::write(dir.join("v1.json"), schema_model(1.0).to_json()).unwrap();
        let reg = ModelRegistry::open(&dir, ServeSchema::prediction()).unwrap();
        let a = reg.current();
        assert_eq!(reg.reload().unwrap(), "v1");
        // Same Arc — no churn when nothing changed.
        assert!(Arc::ptr_eq(&a, &reg.current()));
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = tmpdir("empty");
        let err = ModelRegistry::open(&dir, ServeSchema::prediction()).err().expect("must fail");
        assert!(matches!(err, RegistryError::Empty(_)), "{err}");
    }

    #[test]
    fn corrupt_artifact_fails_cleanly_and_keeps_serving() {
        let dir = tmpdir("corrupt");
        std::fs::write(dir.join("v1.json"), schema_model(1.0).to_json()).unwrap();
        let reg = ModelRegistry::open(&dir, ServeSchema::prediction()).unwrap();
        std::fs::write(dir.join("v2.json"), "{\"kind\": \"gbdt\", trunca").unwrap();
        let err = reg.reload().expect_err("corrupt artifact must fail");
        assert!(matches!(err, RegistryError::Artifact(_)), "{err}");
        // Old model still current.
        assert_eq!(reg.current().version, "v1");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        // A model trained on a layout the serving schema doesn't match:
        // two features named differently.
        let names = vec!["alpha".to_string(), "beta".to_string()];
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 13) as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + r[1]).collect();
        let m =
            FittedModel::fit(&Dataset::new(names, x, y), ModelKind::Linear, &FitConfig::default())
                .unwrap();
        let err = ServeSchema::prediction().validate(&m).expect_err("must mismatch");
        assert!(matches!(err, RegistryError::Schema(_)), "{err}");

        let dir = tmpdir("mismatch");
        std::fs::write(dir.join("v1.json"), m.to_json()).unwrap();
        assert!(matches!(
            ModelRegistry::open(&dir, ServeSchema::prediction()),
            Err(RegistryError::Schema(_))
        ));
    }

    #[test]
    fn prediction_schema_matches_build_dataset_layout() {
        let schema = ServeSchema::prediction();
        assert_eq!(schema.names(), wdt_model::build_dataset(&[], false).names);
        assert!(!schema.names().iter().any(|n| n == "Nflt"));
        assert_eq!(schema.position()["Ksout"], 0);
    }
}
