//! Offline stand-in for `serde_derive`: both derives accept `#[serde(..)]`
//! attributes and expand to nothing, because the `serde` stand-in
//! implements its traits for every type already.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
