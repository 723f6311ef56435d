//! Shared support for the replication integration tests.

pub mod push_hub;
