//! The host stamp every result carries, and the rule for when two results
//! may be compared.

use sfcp_pram::Topology;
use sfcp_service::json::Value;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The solver thread counts the run used (`nproc` and 1).
    pub threads: Vec<usize>,
    /// Closed-loop client connections of the serving loop.
    pub clients: usize,
    /// Cores seen by the `sfcp_pram::Topology` probe.
    pub cores: usize,
    /// Probed last-level cache in bytes.
    pub llc_bytes: usize,
    /// Probed L2 in bytes.
    pub l2_bytes: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The source commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Stamp {
    /// Stamp the current host.
    #[must_use]
    pub fn probe() -> Stamp {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let topology = Topology::probe();
        Stamp {
            nproc,
            threads: vec![nproc, 1],
            clients: nproc,
            cores: topology.cores(),
            llc_bytes: topology.llc_bytes(),
            l2_bytes: topology.l2_bytes(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Why results under `self` and `other` must not be compared, or `None`
    /// when every host field matches.  The commit is what a comparison
    /// varies, so it is recorded but never matched.
    #[must_use]
    pub fn mismatch(&self, other: &Stamp) -> Option<String> {
        let pairs = [
            ("nproc", self.nproc.to_string(), other.nproc.to_string()),
            (
                "threads",
                format!("{:?}", self.threads),
                format!("{:?}", other.threads),
            ),
            (
                "clients",
                self.clients.to_string(),
                other.clients.to_string(),
            ),
            ("cores", self.cores.to_string(), other.cores.to_string()),
            (
                "llc_bytes",
                self.llc_bytes.to_string(),
                other.llc_bytes.to_string(),
            ),
            (
                "l2_bytes",
                self.l2_bytes.to_string(),
                other.l2_bytes.to_string(),
            ),
            ("cpu_model", self.cpu_model.clone(), other.cpu_model.clone()),
        ];
        pairs
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(field, a, b)| format!("{field} differs: {a} vs {b}"))
    }

    /// As a JSON object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let int = |v: usize| Value::Int(v as i64);
        Value::Object(vec![
            ("nproc".into(), int(self.nproc)),
            (
                "threads".into(),
                Value::Array(self.threads.iter().map(|&t| int(t)).collect()),
            ),
            ("clients".into(), int(self.clients)),
            ("cores".into(), int(self.cores)),
            ("llc_bytes".into(), int(self.llc_bytes)),
            ("l2_bytes".into(), int(self.l2_bytes)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("commit".into(), Value::Str(self.commit.clone())),
        ])
    }

    /// Read back [`Stamp::to_value`].
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Stamp> {
        let int = |k: &str| v.get(k)?.as_usize();
        let text = |k: &str| Some(v.get(k)?.as_str()?.to_string());
        Some(Stamp {
            nproc: int("nproc")?,
            threads: v
                .get("threads")?
                .as_array()?
                .iter()
                .map(Value::as_usize)
                .collect::<Option<_>>()?,
            clients: int("clients")?,
            cores: int("cores")?,
            llc_bytes: int("llc_bytes")?,
            l2_bytes: int("l2_bytes")?,
            cpu_model: text("cpu_model")?,
            commit: text("commit")?,
        })
    }

    /// One line for the human-readable report.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host nproc={} threads={:?} clients={} cores={} llc={}B l2={}B cpu=\"{}\" commit={}",
            self.nproc,
            self.threads,
            self.clients,
            self.cores,
            self.llc_bytes,
            self.l2_bytes,
            self.cpu_model,
            self.commit
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
}

/// The commit checked out at or above `dir`, read from `.git` directly.
fn git_commit(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let git = dir
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_through_json() {
        let s = Stamp::probe();
        let text = s.to_value().to_json();
        let back = Stamp::from_value(&sfcp_service::json::parse(text.as_bytes()).unwrap());
        assert_eq!(back, Some(s));
    }

    #[test]
    fn only_host_fields_decide_comparability() {
        let a = Stamp::probe();
        let mut b = a.clone();
        b.commit = "another".into();
        assert_eq!(a.mismatch(&b), None);
        b.llc_bytes += 1;
        assert!(a.mismatch(&b).unwrap().starts_with("llc_bytes differs"));
        let mut c = a.clone();
        c.threads = vec![8, 1];
        assert!(a.mismatch(&c).unwrap().starts_with("threads differs"));
    }
}
