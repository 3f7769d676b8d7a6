//! Model persistence.
//!
//! Trained trees are stored as JSON — useful for the experiment harness
//! (caching a tree across runs) and for downstream users who train
//! offline and classify online.
//!
//! ## Formats
//!
//! * **Version 3** (current): the version-2 JSON body followed by a
//!   fixed-width integrity footer `#udt3:<16-hex body length>:<8-hex
//!   crc32>\n` (32 bytes total, CRC-32/IEEE over the body). Written by
//!   [`to_json_v3`] / [`save`]; readers verify the length and checksum
//!   before parsing, so a bit flip or truncation on disk surfaces as a
//!   typed [`TreeError::Corrupt`] instead of serving a wrong
//!   distribution. A truncation that severs the footer itself is also
//!   caught (the magic is recognised anywhere in the tail); one that
//!   removes the *entire* footer leaves a byte-exact version-2 file,
//!   which back-compat obliges us to accept.
//! * **Version 2**: the serde projection of the flat arena
//!   ([`crate::flat::FlatTree`]) plus metadata, tagged with an explicit
//!   `format_version` field, no footer. Written by [`to_json`]; every
//!   loaded arena passes structural validation before it is served.
//!
//! Nothing else is read: a pre-arena file (a boxed tree under a `"root"`
//! key) fails with [`TreeError::Serde`] like any other wrong-shape input.

use serde::{Deserialize, Serialize};

use crate::flat::FlatTree;
use crate::node::DecisionTree;
use crate::Result;
use crate::TreeError;

/// The JSON schema version of the model body (the flat-arena
/// projection). Unchanged by the version-3 *file* format, which wraps
/// this body in an integrity footer.
pub const FORMAT_VERSION: u32 = 2;

/// The current on-disk *file* version: a [`FORMAT_VERSION`] JSON body
/// plus the fixed-width checksum footer.
pub const FILE_VERSION: u32 = 3;

/// First bytes of the version-3 integrity footer.
const FOOTER_MAGIC: &str = "#udt3:";

/// Exact byte length of the version-3 footer:
/// `#udt3:` + 16 hex digits (body length) + `:` + 8 hex digits (crc32)
/// + `\n`.
const FOOTER_LEN: usize = 32;

/// CRC-32/IEEE lookup table (polynomial `0xEDB88320`), built at compile
/// time — the environment is std-only, so the checksum is hand-rolled.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/IEEE of `bytes` (the variant used by zip, gzip and PNG;
/// `crc32(b"123456789") == 0xCBF4_3926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Renders the version-3 footer for `body`.
fn footer_for(body: &str) -> String {
    format!(
        "{FOOTER_MAGIC}{:016x}:{:08x}\n",
        body.len() as u64,
        crc32(body.as_bytes())
    )
}

fn corrupt(detail: String) -> TreeError {
    TreeError::Corrupt { detail }
}

/// Splits a version-3 string into its verified body, `Ok(None)` for a
/// footer-less (version-2) string, or [`TreeError::Corrupt`]
/// when a footer is present but malformed, truncated, or mismatched.
fn strip_verified_footer(json: &str) -> Result<Option<&str>> {
    if json.len() >= FOOTER_LEN {
        let (body, footer) = json.split_at(json.len() - FOOTER_LEN);
        if footer.starts_with(FOOTER_MAGIC) {
            let fields = &footer[FOOTER_MAGIC.len()..footer.len() - 1];
            let (len_hex, crc_hex) = fields
                .split_once(':')
                .filter(|(l, c)| l.len() == 16 && c.len() == 8 && footer.ends_with('\n'))
                .ok_or_else(|| corrupt("malformed checksum footer".to_string()))?;
            let expected_len = u64::from_str_radix(len_hex, 16)
                .map_err(|_| corrupt("non-hex length in checksum footer".to_string()))?;
            let expected_crc = u32::from_str_radix(crc_hex, 16)
                .map_err(|_| corrupt("non-hex crc32 in checksum footer".to_string()))?;
            if body.len() as u64 != expected_len {
                return Err(corrupt(format!(
                    "length mismatch: footer says {expected_len} bytes, body is {} bytes",
                    body.len()
                )));
            }
            let actual = crc32(body.as_bytes());
            if actual != expected_crc {
                return Err(corrupt(format!(
                    "checksum mismatch: footer says {expected_crc:#010x}, body is {actual:#010x}"
                )));
            }
            return Ok(Some(body));
        }
    }
    // The magic anywhere in the tail means a footer that lost bytes —
    // the compact JSON body never contains a raw `#udt3:` outside a
    // string, and a complete footer was handled above.
    if let Some(i) = json.rfind(FOOTER_MAGIC) {
        if i + FOOTER_LEN > json.len() {
            return Err(corrupt("truncated checksum footer".to_string()));
        }
    }
    Ok(None)
}

/// The version-2 on-disk projection of a [`DecisionTree`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedModel {
    format_version: u32,
    n_attributes: usize,
    class_names: Vec<String>,
    tree: FlatTree,
}

/// Serialises a tree to a JSON string in the current (version 2, flat
/// arena) format.
pub fn to_json(tree: &DecisionTree) -> Result<String> {
    let model = PersistedModel {
        format_version: FORMAT_VERSION,
        n_attributes: tree.n_attributes(),
        class_names: tree.class_names().to_vec(),
        tree: tree.flat().clone(),
    };
    serde_json::to_string(&model).map_err(|e| TreeError::Serde {
        op: "serialisation",
        detail: e.to_string(),
    })
}

/// Serialises a tree to the current version-3 file format: the
/// version-2 JSON body of [`to_json`] followed by the checksum footer.
/// This is exactly what [`save`] writes.
pub fn to_json_v3(tree: &DecisionTree) -> Result<String> {
    let mut body = to_json(tree)?;
    let footer = footer_for(&body);
    body.push_str(&footer);
    Ok(body)
}

/// Deserialises a tree from a JSON string in any supported format.
/// A version-3 checksum footer, when present, is verified first (any
/// integrity failure is a typed [`TreeError::Corrupt`]); footer-less
/// strings are read as version 2. A body that does not parse as a
/// version-2 model is a [`TreeError::Serde`]. Arenas are structurally
/// validated before being accepted.
pub fn from_json(json: &str) -> Result<DecisionTree> {
    let json = match strip_verified_footer(json)? {
        Some(body) => body,
        None => json,
    };
    let model: PersistedModel = serde_json::from_str(json).map_err(|e| TreeError::Serde {
        op: "version-2 deserialisation",
        detail: e.to_string(),
    })?;
    if model.format_version > FORMAT_VERSION {
        return Err(TreeError::InvalidModel {
            reason: "model was written by a newer format version",
        });
    }
    if model.tree.n_classes() != model.class_names.len() {
        return Err(TreeError::InvalidModel {
            reason: "class name count does not match the arena",
        });
    }
    model.tree.validate()?;
    Ok(DecisionTree::from_flat(
        model.tree,
        model.n_attributes,
        model.class_names,
    ))
}

/// Writes a tree to a version-3 model file (JSON body + checksum
/// footer), **crash-safely**: the bytes go to a sibling `<file>.tmp`,
/// are fsynced, and are then atomically renamed over `path`. A crash
/// (or a hot-swap loader racing the writer) therefore sees either the
/// complete old file or the complete new one — never a half-written
/// model. The underlying io error detail is preserved in
/// [`TreeError::Io`].
pub fn save(tree: &DecisionTree, path: &std::path::Path) -> Result<()> {
    use std::io::Write as _;

    let json = to_json_v3(tree)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fn io(op: &'static str, e: std::io::Error) -> TreeError {
        TreeError::Io {
            op,
            detail: e.to_string(),
        }
    }
    let result = (|| {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io("write", e))?;
        file.write_all(json.as_bytes())
            .map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("sync", e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io("rename", e))
    })();
    if result.is_err() {
        // Best effort: do not leave a stale .tmp behind a failed save.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a tree from a model file written by [`save`] — verifying the
/// version-3 checksum footer when one is present — or by an older
/// `save`, whose footer-less version-2 file is read as is.
pub fn load(path: &std::path::Path) -> Result<DecisionTree> {
    let json = std::fs::read_to_string(path).map_err(|e| TreeError::Io {
        op: "read",
        detail: e.to_string(),
    })?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, TreeBuilder, UdtConfig};
    use udt_data::toy;

    fn trained() -> DecisionTree {
        TreeBuilder::new(
            UdtConfig::new(Algorithm::UdtEs)
                .with_postprune(false)
                .with_min_node_weight(0.0),
        )
        .build(&toy::table1_dataset().unwrap())
        .unwrap()
        .tree
    }

    #[test]
    fn json_roundtrip_preserves_the_tree_and_its_predictions() {
        let tree = trained();
        let json = to_json(&tree).unwrap();
        assert!(json.contains("format_version"));
        let restored = from_json(&json).unwrap();
        assert_eq!(tree, restored);
        let data = toy::table1_dataset().unwrap();
        for t in data.tuples() {
            assert_eq!(tree.predict(t).unwrap(), restored.predict(t).unwrap());
            assert_eq!(
                tree.predict_distribution(t).unwrap(),
                restored.predict_distribution(t).unwrap()
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let tree = trained();
        let path = std::env::temp_dir().join("udt-tree-model-test.json");
        save(&tree, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(tree, restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_is_atomic_and_io_errors_carry_detail() {
        let tree = trained();
        let dir = std::env::temp_dir();
        let path = dir.join("udt-tree-atomic-save-test.json");
        // Overwriting an existing model leaves no .tmp sibling behind and
        // produces a loadable file (the rename landed).
        save(&tree, &path).unwrap();
        save(&tree, &path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temp file cleaned up by the rename"
        );
        assert_eq!(load(&path).unwrap(), tree);
        let _ = std::fs::remove_file(&path);

        // A write into a nonexistent directory surfaces the io detail
        // (not a generic "could not write" with the cause discarded).
        let err = save(&tree, std::path::Path::new("/no/such/dir/model.json")).unwrap_err();
        match &err {
            TreeError::Io { op, detail } => {
                assert_eq!(*op, "write");
                assert!(!detail.is_empty(), "io detail preserved");
            }
            other => panic!("expected TreeError::Io, got {other:?}"),
        }
        // And the read path reports its own detail too.
        let err = load(std::path::Path::new("/no/such/model.json")).unwrap_err();
        assert!(matches!(err, TreeError::Io { op: "read", .. }), "{err:?}");
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_json("{not json").is_err());
        assert!(from_json("{\"format_version\": 2}").is_err());
        assert!(load(std::path::Path::new("/no/such/model.json")).is_err());
        // A truncated v2 file reports a v2 parse failure.
        let json = to_json(&trained()).unwrap();
        let err = from_json(&json[..json.len() / 2]).unwrap_err();
        assert!(err.to_string().contains("version-2"), "got: {err}");
    }

    #[test]
    fn crc32_known_answer() {
        // The CRC-32/IEEE check value (zip, gzip, PNG all agree).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn v3_roundtrip_and_footer_shape() {
        let tree = trained();
        let v3 = to_json_v3(&tree).unwrap();
        let body = to_json(&tree).unwrap();
        assert_eq!(&v3[..body.len()], body);
        let footer = &v3[body.len()..];
        assert_eq!(footer.len(), FOOTER_LEN);
        assert!(footer.starts_with(FOOTER_MAGIC));
        assert!(footer.ends_with('\n'));
        assert_eq!(from_json(&v3).unwrap(), tree);
    }

    #[test]
    fn checksum_failures_are_typed_corrupt() {
        let v3 = to_json_v3(&trained()).unwrap();
        // A body edit that keeps the JSON valid still trips the crc.
        let flipped = v3.replacen("\"dists\":[", "\"dists\": [", 1);
        assert_ne!(flipped, v3);
        assert!(matches!(
            from_json(&flipped).unwrap_err(),
            TreeError::Corrupt { detail } if detail.contains("mismatch")
        ));
        // A footer that lost bytes is corrupt, not a parse failure.
        assert!(matches!(
            from_json(&v3[..v3.len() - 7]).unwrap_err(),
            TreeError::Corrupt { detail } if detail.contains("truncated")
        ));
    }

    #[test]
    fn corrupted_arenas_are_rejected_on_load() {
        let tree = trained();
        let json = to_json(&tree).unwrap();
        // Point a child at a nonexistent node: validation must refuse it.
        let corrupted = json.replacen("\"children\":[", "\"children\":[999999,", 1);
        assert_ne!(json, corrupted);
        assert!(from_json(&corrupted).is_err());
        // A future format version is refused rather than misread.
        let future = json.replace("\"format_version\":2", "\"format_version\":99");
        assert!(from_json(&future).is_err());
    }
}
