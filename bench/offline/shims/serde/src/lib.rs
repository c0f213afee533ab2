//! Offline stand-in for `serde`, patched in by `bench/Cargo.toml`.
//!
//! Every type is `Serialize` and `Deserialize`; the derives expand to
//! nothing; nothing can actually be serialized. The only methods are the
//! ones `sapsim-telemetry`'s `series_map` module names, and they panic,
//! like every function of the `serde_json` stand-in.

pub use serde_derive::{Deserialize, Serialize};

const UNAVAILABLE: &str = "serde is not available in the offline benchmark build";

pub trait Serialize {}

impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        panic!("{UNAVAILABLE}")
    }
}

impl<'de, T> Deserialize<'de> for T {}

pub trait Serializer: Sized {
    type Ok;
    type Error;

    fn collect_seq<I>(self, _iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        panic!("{UNAVAILABLE}")
    }
}

pub trait Deserializer<'de>: Sized {
    type Error;
}

pub mod ser {
    pub use crate::{Serialize, Serializer};
}

pub mod de {
    pub use crate::{Deserialize, Deserializer};

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}
