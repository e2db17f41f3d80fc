let () =
  Alcotest.run "bft"
    (Test_crypto.suites @ Test_vpool.suites @ Test_sim.suites @ Test_wire.suites @ Test_partition_tree.suites @ Test_state_transfer.suites
   @ Test_log.suites @ Test_view_change.suites @ Test_codec.suites @ Test_baseline.suites @ Test_util.suites @ Test_checkpoint_store.suites @ Test_config.suites
   @ Test_services.suites @ Test_fs.suites @ Test_paged.suites @ Test_network.suites @ Test_perf.suites
   @ Test_integration.suites @ Test_fuzz.suites @ Test_proxy.suites @ Test_cohort.suites @ Test_attack.suites @ Test_explore.suites @ Test_hotpath.suites @ Test_mac_binding.suites @ Test_obs.suites
   @ Test_lint.suites @ Test_port.suites @ Test_retransmission.suites @ Test_seal.suites)
