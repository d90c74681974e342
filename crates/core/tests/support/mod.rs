//! Test-only models and inputs shared by the pool tests.

pub mod duplicate_stream;
pub mod eager_pool;
