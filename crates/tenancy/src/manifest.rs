//! The cluster manifest: N tenant specs plus lifecycle policy, parsed
//! from the JSON file `shahin-cli serve --manifest` points at.
//!
//! The manifest is deliberately declarative — it names datasets and
//! knobs, never code — and validation is fail-fast: every structural
//! problem (duplicate tenant, unknown explainer, bad default) is
//! reported at startup, before a socket is bound. Parsing uses the
//! workspace's zero-dependency [`shahin_obs::Json`] reader.
//!
//! ```json
//! {
//!   "default": "acme",
//!   "snapshot_dir": "/var/lib/shahin/snapshots",
//!   "memory_budget_bytes": 268435456,
//!   "idle_evict_ms": 600000,
//!   "tenants": [
//!     {"name": "acme", "csv": "acme.csv", "label": "outcome",
//!      "explainer": "lime", "seed": 42, "warm_rows": 200},
//!     {"name": "globex", "csv": "globex.csv", "label": "churn",
//!      "explainer": "shap", "quota": 64, "threads": 4},
//!     {"name": "initech", "csv": "initech.csv", "label": "risk",
//!      "explainer": "anchor", "warm_from": "seeded/initech.shws"}
//!   ]
//! }
//! ```

use std::path::{Path, PathBuf};

use shahin_obs::Json;

/// One tenant's declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Routing key and snapshot/metric label. Restricted to
    /// `[A-Za-z0-9_-]` so it is safe in file names and metric names.
    pub name: String,
    /// Dataset CSV path (relative paths resolve against the manifest's
    /// directory).
    pub csv: String,
    /// Label column in the CSV.
    pub label: String,
    /// Explainer: `lime`, `anchor`, or `shap`.
    pub explainer: String,
    /// Prime seed (default 42).
    pub seed: u64,
    /// Rows of the dataset's test split kept as the warm set (default
    /// 200).
    pub warm_rows: usize,
    /// Worker threads for this tenant's engine (default: the host's
    /// available parallelism).
    pub threads: Option<usize>,
    /// Max in-flight explain requests before 429 (default: unlimited;
    /// 0 is legal and rejects everything — useful for draining a
    /// tenant).
    pub quota: Option<usize>,
    /// Explicit snapshot to hydrate the first cold start from,
    /// overriding `<snapshot_dir>/<name>.shws`. Must be readable at
    /// startup (fail-fast), like single-tenant `--warm-from`.
    pub warm_from: Option<String>,
}

/// The parsed, validated manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantManifest {
    pub tenants: Vec<TenantSpec>,
    /// Index into `tenants` of the tenant requests without a `tenant`
    /// field route to (the first tenant unless `default` names another).
    pub default: usize,
    /// Directory for per-tenant snapshots (`<dir>/<name>.shws`); when
    /// absent, cold starts never hydrate and evictions never persist.
    pub snapshot_dir: Option<PathBuf>,
    /// Global warm-memory budget across all tenants' stores, bytes.
    pub memory_budget_bytes: Option<usize>,
    /// Evict a warm tenant idle longer than this (milliseconds).
    pub idle_evict_ms: Option<u64>,
}

const EXPLAINERS: [&str; 3] = ["lime", "anchor", "shap"];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl TenantManifest {
    /// Parses and validates manifest text. Every error is a
    /// human-readable string naming the offending field.
    pub fn parse(text: &str) -> Result<TenantManifest, String> {
        let root = Json::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
        let tenants_json = root
            .get("tenants")
            .and_then(Json::as_arr)
            .ok_or("manifest needs a non-empty \"tenants\" array")?;
        if tenants_json.is_empty() {
            return Err("manifest needs at least one tenant".into());
        }
        let mut tenants = Vec::with_capacity(tenants_json.len());
        for (i, t) in tenants_json.iter().enumerate() {
            tenants.push(TenantSpec::from_json(t, i)?);
        }
        for (i, t) in tenants.iter().enumerate() {
            if tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate tenant name \"{}\"", t.name));
            }
        }
        let default = match root.get("default").and_then(Json::as_str) {
            None => 0,
            Some(name) => tenants
                .iter()
                .position(|t| t.name == name)
                .ok_or_else(|| format!("default tenant \"{name}\" is not in the manifest"))?,
        };
        let snapshot_dir = root
            .get("snapshot_dir")
            .and_then(Json::as_str)
            .map(PathBuf::from);
        let memory_budget_bytes = root
            .get("memory_budget_bytes")
            .and_then(Json::as_u64)
            .map(|b| b as usize);
        let idle_evict_ms = root.get("idle_evict_ms").and_then(Json::as_u64);
        Ok(TenantManifest {
            tenants,
            default,
            snapshot_dir,
            memory_budget_bytes,
            idle_evict_ms,
        })
    }

    /// Reads and parses the manifest at `path`, resolving each tenant's
    /// relative `csv` / `warm_from` paths against the manifest's
    /// directory (so a manifest is relocatable with its data).
    pub fn load(path: &Path) -> Result<TenantManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        let mut m = TenantManifest::parse(&text)?;
        let base = path.parent().unwrap_or(Path::new("."));
        let resolve = |p: &str| {
            if Path::new(p).is_absolute() {
                p.to_string()
            } else {
                base.join(p).to_string_lossy().into_owned()
            }
        };
        for t in &mut m.tenants {
            t.csv = resolve(&t.csv);
            t.warm_from = t.warm_from.as_deref().map(resolve);
        }
        m.snapshot_dir = m
            .snapshot_dir
            .map(|d| if d.is_absolute() { d } else { base.join(d) });
        Ok(m)
    }

    /// The per-tenant snapshot path, `<snapshot_dir>/<name>.shws` —
    /// hydration source at cold start, at-evict persistence target.
    /// `warm_from` overrides the *first* hydration only; once the
    /// lifecycle owns the tenant, this layout is authoritative.
    pub fn snapshot_path(&self, tenant: &str) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("{tenant}.shws")))
    }
}

impl TenantSpec {
    fn from_json(t: &Json, i: usize) -> Result<TenantSpec, String> {
        let str_field = |key: &str| -> Result<String, String> {
            t.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("tenant #{i}: missing or non-string \"{key}\""))
        };
        let name = str_field("name")?;
        if !valid_name(&name) {
            return Err(format!(
                "tenant #{i}: name \"{name}\" must be non-empty [A-Za-z0-9_-]"
            ));
        }
        let explainer = str_field("explainer")?.to_ascii_lowercase();
        if !EXPLAINERS.contains(&explainer.as_str()) {
            return Err(format!(
                "tenant \"{name}\": unknown explainer \"{explainer}\" (one of lime, anchor, shap)"
            ));
        }
        Ok(TenantSpec {
            csv: str_field("csv")?,
            label: str_field("label")?,
            explainer,
            seed: t.get("seed").and_then(Json::as_u64).unwrap_or(42),
            warm_rows: t
                .get("warm_rows")
                .and_then(Json::as_u64)
                .map_or(200, |r| r as usize),
            threads: t.get("threads").and_then(Json::as_u64).map(|n| n as usize),
            quota: t.get("quota").and_then(Json::as_u64).map(|q| q as usize),
            warm_from: t
                .get("warm_from")
                .and_then(Json::as_str)
                .map(str::to_string),
            name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "default": "b",
        "snapshot_dir": "snaps",
        "memory_budget_bytes": 1048576,
        "idle_evict_ms": 250,
        "tenants": [
            {"name": "a", "csv": "a.csv", "label": "y", "explainer": "lime"},
            {"name": "b", "csv": "b.csv", "label": "y", "explainer": "SHAP",
             "seed": 7, "warm_rows": 50, "quota": 8, "threads": 2,
             "warm_from": "seeded.shws"}
        ]
    }"#;

    #[test]
    fn good_manifest_parses_with_defaults_applied() {
        let m = TenantManifest::parse(GOOD).expect("parses");
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.default, 1, "default routes to b");
        assert_eq!(m.memory_budget_bytes, Some(1 << 20));
        assert_eq!(m.idle_evict_ms, Some(250));
        let a = &m.tenants[0];
        assert_eq!((a.seed, a.warm_rows), (42, 200), "defaults");
        assert_eq!((a.quota, a.threads), (None, None));
        let b = &m.tenants[1];
        assert_eq!(b.explainer, "shap", "explainer is case-insensitive");
        assert_eq!((b.seed, b.warm_rows, b.quota), (7, 50, Some(8)));
        assert_eq!(
            m.snapshot_path("a"),
            Some(PathBuf::from("snaps").join("a.shws"))
        );
    }

    #[test]
    fn structural_errors_are_reported_by_name() {
        for (text, needle) in [
            ("{", "not valid JSON"),
            ("{\"tenants\": []}", "at least one tenant"),
            ("{\"tenants\": 3}", "\"tenants\" array"),
            (
                "{\"tenants\": [{\"name\": \"a\", \"csv\": \"a\", \"label\": \"y\", \"explainer\": \"tree\"}]}",
                "unknown explainer",
            ),
            (
                "{\"tenants\": [{\"name\": \"a b\", \"csv\": \"a\", \"label\": \"y\", \"explainer\": \"lime\"}]}",
                "A-Za-z0-9_-",
            ),
            (
                "{\"tenants\": [{\"name\": \"a\", \"csv\": \"a\", \"label\": \"y\", \"explainer\": \"lime\"}, {\"name\": \"a\", \"csv\": \"b\", \"label\": \"y\", \"explainer\": \"lime\"}]}",
                "duplicate tenant",
            ),
            (
                "{\"default\": \"zzz\", \"tenants\": [{\"name\": \"a\", \"csv\": \"a\", \"label\": \"y\", \"explainer\": \"lime\"}]}",
                "not in the manifest",
            ),
            (
                "{\"tenants\": [{\"name\": \"a\", \"csv\": \"a\", \"explainer\": \"lime\"}]}",
                "\"label\"",
            ),
        ] {
            let err = TenantManifest::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn no_snapshot_dir_means_no_snapshot_paths() {
        let m = TenantManifest::parse(
            "{\"tenants\": [{\"name\": \"a\", \"csv\": \"a\", \"label\": \"y\", \"explainer\": \"lime\"}]}",
        )
        .unwrap();
        assert_eq!(m.snapshot_path("a"), None);
        assert_eq!(m.default, 0);
    }

    #[test]
    fn load_resolves_relative_paths_against_the_manifest_dir() {
        let dir = std::env::temp_dir().join(format!("shahin_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.json");
        std::fs::write(&path, GOOD).unwrap();
        let m = TenantManifest::load(&path).expect("loads");
        assert_eq!(m.tenants[0].csv, dir.join("a.csv").to_string_lossy());
        assert_eq!(
            m.tenants[1].warm_from.as_deref(),
            Some(dir.join("seeded.shws").to_string_lossy().as_ref())
        );
        assert_eq!(m.snapshot_dir.as_deref(), Some(dir.join("snaps").as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
