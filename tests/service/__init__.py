"""Tests for the service layer (the repro serve daemon)."""
